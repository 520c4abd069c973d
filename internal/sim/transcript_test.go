package sim

// transcript_test.go verifies the streamed binary transcript: pinned bytes
// at every worker count (faulted and fault-free), the reader's round-trip
// fidelity, gzip framing, and the reflective guard that pins the Metrics
// wire encoding to the struct.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// transcriptMachine exercises every frame feature: point-to-point sends
// (inbox digests), RNG draws, channel writes (success and collision
// slots), and per-node halt rounds.
func transcriptMachine(c *StepCtx) Machine {
	return &stepFuncs{
		step: func(in Input) bool {
			sum := 0
			for _, m := range in.Msgs {
				sum += m.Payload.(int)
			}
			_ = sum
			r := in.Round
			if r == 8+int(c.ID()) {
				return true
			}
			if c.Rand().Intn(3) == 0 {
				c.Send((r+1)%c.Degree(), int(c.ID())*100+r)
			}
			if c.Rand().Intn(4) == 0 {
				c.Broadcast(int(c.ID()))
			}
			return false
		},
		result: func() any { return int(c.ID()) },
	}
}

// runTranscript runs transcriptMachine with a transcript writer installed
// and returns the raw transcript bytes.
func runTranscript(t *testing.T, g *graph.Graph, opts ...Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, false)
	if _, err := RunStep(g, transcriptMachine, append([]Option{WithTranscript(tw)}, opts...)...); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTranscriptPinned holds transcriptMachine's stream and outcome to
// committed fixtures, fault-free and faulted, at 1 and 4 workers.
func TestTranscriptPinned(t *testing.T) {
	g := ring(t, 8)
	for _, tc := range []struct {
		name string
		plan string
	}{
		{"fault-free", ""},
		{"faulted", "crash:3@4;delay:0@2/d3;dup:1@3;jam:5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithSeed(42)}
			if tc.plan != "" {
				p, err := fault.Parse(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, WithFaults(p))
			}
			run := func(o ...Option) (*Result, error) { return RunStep(g, transcriptMachine, o...) }
			for _, w := range []int{1, 4} {
				checkPin(t, "transcript-"+tc.name, fmt.Sprintf("step-w%d", w),
					pinCell(t, run, append(opts, WithWorkers(w))...))
			}
		})
	}
}

func TestTranscriptReaderRoundTrip(t *testing.T) {
	g := ring(t, 6)
	raw := runTranscript(t, g, WithSeed(9))

	tr, err := NewTranscriptReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header()
	if h.N != 6 || h.Seed != 9 || h.Plan != "" || h.Gzip {
		t.Errorf("header = %+v", h)
	}

	var rounds []*RoundFrame
	var final *FinalFrame
	for {
		rf, ff, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rf != nil {
			rounds = append(rounds, rf)
		}
		if ff != nil {
			final = ff
		}
	}
	if final == nil {
		t.Fatal("no final frame")
	}
	if len(rounds) == 0 {
		t.Fatal("no round frames")
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Round <= rounds[i-1].Round {
			t.Fatalf("rounds not ascending: %d after %d", rounds[i].Round, rounds[i-1].Round)
		}
	}
	last := rounds[len(rounds)-1]
	// Re-run without a transcript: the final frame must agree with the
	// run's native Result.
	res, err := RunStep(g, transcriptMachine, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if final.Met != res.Metrics {
		t.Errorf("final metrics = %+v, want %+v", final.Met, res.Metrics)
	}
	if final.Err != "" || final.N != 6 {
		t.Errorf("final frame = %+v", final)
	}
	if got, want := final.ResultsDigest, resultsDigest(res.Results); got != want {
		t.Errorf("results digest = %x, want %x", got, want)
	}
	if last.Met.Rounds != res.Metrics.Rounds-1 {
		// The halting round emits no frame (nothing is delivered for the
		// next round); the last frame is the round before it.
		t.Errorf("last frame at metrics round %d, run had %d", last.Met.Rounds, res.Metrics.Rounds)
	}
	// After the final frame the reader reports EOF forever.
	if _, _, err := tr.Next(); err != io.EOF {
		t.Errorf("post-final Next = %v, want EOF", err)
	}
}

func TestTranscriptGzip(t *testing.T) {
	g := ring(t, 6)
	plain := runTranscript(t, g, WithSeed(3))

	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, true)
	if _, err := RunStep(g, transcriptMachine, WithSeed(3), WithTranscript(tw)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()
	if bytes.Equal(gz, plain) {
		t.Fatal("gzip transcript identical to plain")
	}

	want := decodeAll(t, plain)
	got := decodeAll(t, gz)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gzip transcript decodes differently")
	}
	tr, err := NewTranscriptReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Header().Gzip {
		t.Error("gzip flag not set in header")
	}
}

// decodeAll decodes a transcript to its frame sequence.
func decodeAll(t *testing.T, raw []byte) []any {
	t.Helper()
	tr, err := NewTranscriptReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header()
	h.Gzip = false // compression is transport, not content
	frames := []any{h}
	for {
		rf, ff, err := tr.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		if rf != nil {
			frames = append(frames, *rf)
		}
		if ff != nil {
			frames = append(frames, *ff)
		}
	}
}

func TestTranscriptCorruptionDetected(t *testing.T) {
	g := ring(t, 5)
	raw := runTranscript(t, g, WithSeed(5))

	// Flip one byte beyond the header frame: some frame's crc must fail.
	bad := bytes.Clone(raw)
	bad[len(bad)/2] ^= 0x40
	tr, err := NewTranscriptReader(bytes.NewReader(bad))
	if err == nil {
		for {
			_, _, err = tr.Next()
			if err != nil {
				break
			}
		}
	}
	if err == nil || err == io.EOF {
		t.Errorf("corrupted transcript read cleanly")
	}

	if _, err := NewTranscriptReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestTranscriptMetricsCoverEveryField pins the wire encoding to the struct:
// a Metrics field added without extending appendMetrics/decodeMetrics (and
// bumping transcriptMetricsFields) fails here instead of silently vanishing
// from transcripts.
func TestTranscriptMetricsCoverEveryField(t *testing.T) {
	if n := reflect.TypeOf(Metrics{}).NumField(); n != transcriptMetricsFields {
		t.Fatalf("Metrics has %d fields, transcript encodes %d — extend appendMetrics/decodeMetrics and bump transcriptMetricsFields", n, transcriptMetricsFields)
	}
	var m Metrics
	fillDistinct(&m, 7)
	b := appendMetrics(nil, &m)
	var got Metrics
	d := frameDecoder{b: b}
	decodeMetrics(&d, &got)
	if d.err != nil || len(d.b) != 0 {
		t.Fatalf("decode err=%v, %d bytes left", d.err, len(d.b))
	}
	if got != m {
		t.Errorf("metrics round-trip: got %+v, want %+v", got, m)
	}
}

// scanFrames walks an uncompressed transcript's raw bytes independently of
// TranscriptReader, returning the byte offset where each frame starts plus
// the decoded round of round frames (-1 for header/final). It is the
// test-side reimplementation the stitching tests cut transcripts with.
func scanFrames(t *testing.T, raw []byte) (offsets []int, roundsOf []int) {
	t.Helper()
	if len(raw) < 6 || string(raw[:4]) != transcriptMagic || raw[5]&tflagGzip != 0 {
		t.Fatalf("not a plain transcript")
	}
	off := 6
	for off < len(raw) {
		offsets = append(offsets, off)
		kind := raw[off]
		size, n := binary.Uvarint(raw[off+1:])
		if n <= 0 {
			t.Fatalf("bad frame length at offset %d", off)
		}
		body := raw[off+1+n : off+1+n+int(size)]
		if kind == frameRound {
			r, _ := binary.Uvarint(body)
			roundsOf = append(roundsOf, int(r))
		} else {
			roundsOf = append(roundsOf, -1)
		}
		off += 1 + n + int(size) + 4
	}
	if off != len(raw) {
		t.Fatalf("trailing garbage: %d bytes", len(raw)-off)
	}
	return offsets, roundsOf
}
