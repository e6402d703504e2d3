package jobs

import (
	"bytes"
	"testing"
	"time"
)

// TestClusterStreamingModesParity runs the GBJ query over the one shuffle
// wire mode, chunk streaming of uncompressed buckets: the result must be
// byte-identical to the local backend, the chunk counters must move, and
// on-wire bytes may exceed the raw bytes only by per-chunk framing.
func TestClusterStreamingModesParity(t *testing.T) {
	d := startTestCluster(t, 3)
	p := baseParams()
	p.Src = fig4Queries[0].src
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	t.Run("streaming-raw", func(t *testing.T) {
		cs := NewClusterSession(d, baseParams(), time.Minute)
		got, _, err := cs.Query(p.Src)
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result differs from local: %s vs %s", FormatResult(got), FormatResult(want))
		}
		snap := cs.Metrics()
		if snap.WireChunks == 0 {
			t.Fatal("no stream chunks counted — wire path not exercised")
		}
		if snap.WireRawBytes == 0 {
			t.Fatal("WireRawBytes not counted")
		}
		// On-wire bytes may exceed the raw payload only by the
		// per-chunk length header.
		if slack := 16 * snap.WireChunks; snap.WireFetchedBytes > snap.WireRawBytes+slack {
			t.Fatalf("wire bytes (%d) exceed raw bytes (%d) + framing slack",
				snap.WireFetchedBytes, snap.WireRawBytes)
		}
	})
}
