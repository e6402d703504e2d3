package main

// Layer probes: timed direct calls into one layer's public functions,
// fed the shapes and tiles the workload uses, each round trip checked.

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/sacparser"
	"repro/internal/spill"
	"repro/internal/tiled"
)

// probeTime is how long each throughput probe repeats its call.
const probeTime = 200 * time.Millisecond

// repeat calls fn until probeTime has passed and returns the calls
// made and the time taken.
func repeat(fn func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for time.Since(start) < probeTime {
		fn()
		n++
	}
	return n, time.Since(start)
}

// probeGemm times linalg.Gemm on one goroutine on n x n tiles.
func probeGemm(rep *report, n int, seed int64) error {
	a := linalg.RandDense(n, n, 0, 10, seedFor(seed, 100))
	b := linalg.RandDense(n, n, 0, 10, seedFor(seed, 101))
	c := linalg.NewDense(n, n)
	calls, d := repeat(func() {
		c.Zero()
		linalg.Gemm(c, a, b)
	})
	want := linalg.NewDense(n, n)
	linalg.GemmNaive(want, a, b)
	if !c.EqualApprox(want, 1e-9*want.FrobeniusNorm()) {
		return fmt.Errorf("linalg.Gemm probe: result differs from the naive product")
	}
	rep.layer["linalg.gemm_gflops"] = 2 * float64(n*n*n) * float64(calls) / d.Seconds() / 1e9
	return nil
}

// probeAdd times linalg.AddInPlace on n x n tiles; each call reads two
// tiles and writes one.
func probeAdd(rep *report, n int, seed int64) error {
	a := linalg.RandDense(n, n, 0, 10, seedFor(seed, 102))
	b := linalg.RandDense(n, n, 0, 10, seedFor(seed, 103))
	acc := a.Clone()
	calls, d := repeat(func() { linalg.AddInPlace(acc, b) })
	for i, v := range acc.Data {
		if want := a.Data[i] + float64(calls)*b.Data[i]; !(math.Abs(v-want) <= 1e-9*(math.Abs(want)+1)) {
			return fmt.Errorf("linalg.AddInPlace probe: element %d = %g, want %g", i, v, want)
		}
	}
	rep.layer["linalg.add_gibps"] = 3 * float64(a.NumBytes()) * float64(calls) / d.Seconds() / (1 << 30)
	return nil
}

// chunkSize splits codec output the way the shuffle wire does before
// compressing each piece.
const chunkSize = 256 << 10

// probeCodec encodes and decodes the workload's tiles with the
// registered tiled.Block codec, then compresses and decompresses the
// encoded bytes chunk by chunk, checking both round trips.
func probeCodec(rep *report, tiles []tiled.Block) error {
	codec := spill.For[tiled.Block]()
	var (
		blob    []byte
		decoded []tiled.Block
		err     error
		encT    []float64
		decT    []float64
	)
	for i := 0; i < 3; i++ {
		start := time.Now()
		blob, err = spill.EncodeRows(tiles, codec)
		if err != nil {
			return err
		}
		encT = append(encT, time.Since(start).Seconds())
		start = time.Now()
		decoded, err = spill.DecodeRows(blob, codec)
		if err != nil {
			return err
		}
		decT = append(decT, time.Since(start).Seconds())
	}
	if len(decoded) != len(tiles) {
		return fmt.Errorf("spill codec probe: %d rows decoded, want %d", len(decoded), len(tiles))
	}
	for i := range tiles {
		if decoded[i].Key != tiles[i].Key || !decoded[i].Value.Equal(tiles[i].Value) {
			return fmt.Errorf("spill codec probe: row %d differs after a round trip", i)
		}
	}
	size := float64(len(blob)) / mib
	rep.layer["spill.encode_mibps"] = size / median(encT)
	rep.layer["spill.decode_mibps"] = size / median(decT)

	var packed int
	var compT, decompT []float64
	for i := 0; i < 3; i++ {
		var blocks [][]byte
		start := time.Now()
		for off := 0; off < len(blob); off += chunkSize {
			blocks = append(blocks, spill.CompressBlock(blob[off:min(off+chunkSize, len(blob))]))
		}
		compT = append(compT, time.Since(start).Seconds())
		packed = 0
		start = time.Now()
		for j, blk := range blocks {
			off := j * chunkSize
			raw := blob[off:min(off+chunkSize, len(blob))]
			out, err := spill.DecompressBlock(blk, len(raw))
			if err != nil {
				return err
			}
			if !bytes.Equal(out, raw) {
				return fmt.Errorf("compression probe: chunk %d differs after a round trip", j)
			}
			packed += len(blk)
		}
		decompT = append(decompT, time.Since(start).Seconds())
	}
	rep.layer["spill.compress_mibps"] = size / median(compT)
	rep.layer["spill.decompress_mibps"] = size / median(decompT)
	rep.layer["spill.compress_ratio"] = float64(len(blob)) / float64(packed)
	return nil
}

// probeCompile times sacparser.Parse and core.Session.Compile on the
// workload's query texts.
func probeCompile(rep *report, sess *core.Session, srcs []string) error {
	var parse, compile []float64
	for i := 0; i < 50; i++ {
		for _, src := range srcs {
			start := time.Now()
			if _, err := sacparser.Parse(src); err != nil {
				return err
			}
			parse = append(parse, float64(time.Since(start))/float64(time.Microsecond))
			start = time.Now()
			if _, err := sess.Compile(src); err != nil {
				return err
			}
			compile = append(compile, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	rep.layer["sacparser.parse_us"] = median(parse)
	rep.layer["plan.compile_us"] = median(compile)
	return nil
}

// probeTasks times dataflow.Map + Count over empty partitions: the
// scheduler's cost per task with no work in it.
func probeTasks(rep *report, parallelism, parts int) {
	ctx := dataflow.NewContext(dataflow.Config{Parallelism: parallelism, DefaultPartitions: parts})
	defer ctx.Close()
	empty := dataflow.Generate(ctx, parts, func(int) []int { return nil })
	calls, d := repeat(func() {
		dataflow.Count(dataflow.Map(empty, func(v int) int { return v }))
	})
	rep.layer["dataflow.task_us"] = float64(d) / float64(time.Microsecond) / float64(calls*parts)
}
