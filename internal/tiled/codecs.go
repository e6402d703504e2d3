package tiled

// Spill codecs for the tiled layer's shuffle rows. Without them the
// rows of RotateRows, plan's Rule 19 replication and the group-by-join
// would fall back to gob on spill and on the cluster wire.

import (
	"repro/internal/dataflow"
	"repro/internal/spill"
)

// entryCodec spills sparse tile entries (two varints + raw IEEE bits).
type entryCodec struct{}

func (entryCodec) Encode(w *spill.Writer, e Entry) {
	w.Varint(e.I)
	w.Varint(e.J)
	w.F64(e.V)
}

func (entryCodec) Decode(r *spill.Reader) Entry {
	return Entry{I: r.Varint(), J: r.Varint(), V: r.F64()}
}

// taggedTileCodec spills a tile tagged with its source coordinate.
type taggedTileCodec struct{}

func (taggedTileCodec) Encode(w *spill.Writer, t TaggedTile) {
	dataflow.CoordCodec{}.Encode(w, t.Src)
	dataflow.DenseCodec{}.Encode(w, t.Tile)
}

func (taggedTileCodec) Decode(r *spill.Reader) TaggedTile {
	src := dataflow.CoordCodec{}.Decode(r)
	return TaggedTile{Src: src, Tile: dataflow.DenseCodec{}.Decode(r)}
}

// keyedTileCodec spills a tile tagged with its SUMMA join key and
// group — dropping the group would misroute matches after a spill.
type keyedTileCodec struct{}

func (keyedTileCodec) Encode(w *spill.Writer, t keyedTile) {
	w.Varint(t.K)
	w.Varint(t.G)
	dataflow.DenseCodec{}.Encode(w, t.Tile)
}

func (keyedTileCodec) Decode(r *spill.Reader) keyedTile {
	return keyedTile{K: r.Varint(), G: r.Varint(), Tile: dataflow.DenseCodec{}.Decode(r)}
}

func init() {
	spill.Register[Entry](entryCodec{})
	spill.Register(dataflow.PairCodec[Coord, TaggedTile](dataflow.CoordCodec{}, taggedTileCodec{}))
	spill.Register(dataflow.PairCodec[Coord, keyedTile](dataflow.CoordCodec{}, keyedTileCodec{}))
}
