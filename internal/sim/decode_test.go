package sim

// decode_test.go holds the MMCP and MMTR decoders to hostile input: a
// length prefix may claim anything, so a reader must not allocate more
// than the bytes actually present, and arbitrary bytes must fail cleanly
// rather than panic.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// hostileCheckpoint is a checkpoint prelude whose body length claims 1 GiB
// and whose body is missing.
func hostileCheckpoint() []byte {
	return binary.AppendUvarint([]byte(checkpointMagic+"\x01"), 1<<30)
}

// hostileTranscript is a transcript prelude and header-frame kind whose
// frame length claims 1 GiB and whose body is missing.
func hostileTranscript() []byte {
	b := append([]byte(transcriptMagic), TranscriptVersion, 0, frameHeader)
	return binary.AppendUvarint(b, 1<<30)
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecodersBoundHostileLengths(t *testing.T) {
	const limit = 1 << 20
	for _, tc := range []struct {
		name string
		in   []byte
		read func([]byte) error
	}{
		{"MMCP", hostileCheckpoint(), func(b []byte) error {
			_, err := ReadCheckpoint(bytes.NewReader(b))
			return err
		}},
		{"MMTR", hostileTranscript(), func(b []byte) error {
			_, err := NewTranscriptReader(bytes.NewReader(b))
			return err
		}},
	} {
		var err error
		alloc := allocatedBy(func() { err = tc.read(tc.in) })
		if err == nil {
			t.Errorf("%s: %d-byte input with a 1 GiB length decoded without error", tc.name, len(tc.in))
		}
		if alloc >= limit {
			t.Errorf("%s: %d-byte input allocated %d bytes before failing, want under %d", tc.name, len(tc.in), alloc, limit)
		}
	}
}

// gzipped returns b compressed.
func gzipped(t testing.TB, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// committedFixtures returns the repository's committed files matching
// pattern, relative to this package.
func committedFixtures(t testing.TB, pattern string) [][]byte {
	var out [][]byte
	for _, sub := range []string{"", "*"} {
		names, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "testdata", sub, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no committed %s fixtures found", pattern)
	}
	return out
}

// smallCheckpoint captures a short ckptMachine run on a ring at round 3.
func smallCheckpoint(t testing.TB) []byte {
	var cps []*Checkpoint
	spec := &CheckpointSpec{At: []int{3}, Sink: collectCheckpoints(&cps)}
	g, err := graph.ImplicitRing(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStep(g, ckptProgram(8), WithSeed(3), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	b, err := cps[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// smallTranscript records a short transcriptMachine run on a ring.
func smallTranscript(t testing.TB, gz bool) []byte {
	g, err := graph.ImplicitRing(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, gz)
	if _, err := RunStep(g, transcriptMachine, WithSeed(2), WithTranscript(tw)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadCheckpoint(f *testing.F) {
	small := smallCheckpoint(f)
	for _, b := range append(committedFixtures(f, "*.mmcp"), small, gzipped(f, small), hostileCheckpoint()) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(in))
		if err != nil {
			return
		}
		// A checkpoint that decodes also re-encodes, and the new bytes
		// decode.
		out, err := cp.Encode()
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(out)); err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
	})
}

func FuzzTranscriptReader(f *testing.F) {
	for _, b := range append(committedFixtures(f, "*.mmtr"),
		smallTranscript(f, false), smallTranscript(f, true), hostileTranscript()) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := NewTranscriptReader(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Every frame consumes input, so the walk ends at the final frame
		// or an error.
		for {
			round, final, err := tr.Next()
			if err != nil || final != nil {
				return
			}
			if round == nil {
				t.Fatal("Next returned neither a frame nor an error")
			}
		}
	})
}
