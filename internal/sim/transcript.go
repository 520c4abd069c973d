package sim

// transcript.go is the streamed binary transcript format: a round-framed,
// crc-checked digest of everything the determinism contract promises is
// bit-identical across worker counts. The engine emits one frame per
// executed (or fast-forwarded) round — slot resolution, live-node count,
// cumulative Metrics, and a digest of every inbox delivered for the next
// round — plus one final frame carrying the run's outcome. Two runs of the
// same (graph, program, seed, plan) therefore produce byte-identical
// transcript files whatever worker count executed them, which is
// what makes cmd/mmreplay's diff able to pinpoint the first divergent
// (round, node) of a broken run, and what lets a checkpoint-resumed run's
// transcript be stitched onto the original's prefix and compared against an
// uninterrupted run byte for byte.
//
// # Wire format (version 2)
//
//	prelude  "MMTR" | version byte | flags byte (bit0: gzip)
//	stream   header frame, round frames (ascending rounds), final frame
//
// Everything after the prelude is gzip-wrapped when the flag bit is set.
// Every frame is
//
//	kind byte | uvarint bodyLen | body | crc32-IEEE(body), 4 bytes LE
//
// with bodies:
//
//	header  uvarint n | uvarint zigzag(seed) | uvarint len(plan), plan |
//	        uvarint len(label), label
//	round   uvarint round | slot state byte |
//	        (success only: uvarint writer id, 8-byte payload digest LE) |
//	        uvarint alive | 14 uvarint Metrics fields (struct order) |
//	        uvarint k | k × (uvarint node-id delta, 8-byte inbox digest LE)
//	final   14 uvarint Metrics fields | uvarint len(err), err |
//	        8-byte results digest LE | uvarint n
//
// Inbox digests are 64-bit FNV-1a over each message's (sender, edge id,
// payload) in delivery order; payloads are hashed through their %#v
// rendering, which is deterministic for the value types protocols send.
// Node ids inside a round frame are delta-coded ascending.
//
// Transcript emission is coordinator-side only and stays out of the
// engine's //mmlint:noalloc phases: with no writer installed (the default)
// every hook site is one nil check and the zero-alloc guarantee is
// untouched.

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/graph"
)

// TranscriptVersion is the wire format version this package writes.
// Version 2 extended the metrics field list from 11 to 14 (partitioned
// drops, restarts, skewed messages); the reader is strict, so version-1
// streams must be regenerated rather than reinterpreted.
const TranscriptVersion = 2

const (
	transcriptMagic = "MMTR"

	frameHeader byte = 1
	frameRound  byte = 2
	frameFinal  byte = 3

	tflagGzip byte = 1 << 0
)

// fnv64Offset/fnv64Prime are the FNV-1a constants used for every digest in
// the transcript (hash/fnv with less indirection).
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnv64Prime
	}
	return h
}

// payloadDigest hashes one payload through its %#v rendering.
func payloadDigest(p Payload) uint64 {
	return fnvBytes(fnv64Offset, fmt.Appendf(nil, "%#v", p))
}

// inboxDigest hashes one delivered inbox in its (sender, edge id) delivery
// order, reusing scratch for the rendering.
func inboxDigest(box []Message, scratch []byte) (uint64, []byte) {
	h := fnv64Offset
	for i := range box {
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(box[i].From))
		scratch = binary.AppendUvarint(scratch, uint64(box[i].EdgeID))
		scratch = fmt.Appendf(scratch, "%#v", box[i].Payload)
		scratch = append(scratch, ';')
		h = fnvBytes(h, scratch)
	}
	return h, scratch
}

// resultsDigest hashes the per-node results of a finished run.
func resultsDigest(results []any) uint64 {
	h := fnv64Offset
	var scratch []byte
	for v, r := range results {
		scratch = fmt.Appendf(scratch[:0], "%d:%#v;", v, r)
		h = fnvBytes(h, scratch)
	}
	return h
}

// TranscriptHeader identifies the run a transcript describes.
type TranscriptHeader struct {
	Version int
	Gzip    bool
	N       int
	Seed    int64
	Plan    string // fault plan DSL, "" for a fault-free run
	Label   string // free-form run label (algo/graph spelling)
}

// NodeDigest is one node's inbox digest within a round frame.
type NodeDigest struct {
	Node   graph.NodeID
	Digest uint64
}

// RoundFrame is one decoded round of a transcript: the slot resolved for
// this round, the nodes still live, the run's cumulative metrics, and the
// digest of every nonempty inbox delivered for the round (ascending node
// order).
type RoundFrame struct {
	Round      int
	Slot       SlotState
	From       graph.NodeID // success slots only
	SlotDigest uint64       // success slots only: payload digest
	Alive      int
	Met        Metrics
	Nodes      []NodeDigest
}

// FinalFrame closes a transcript with the run's outcome.
type FinalFrame struct {
	Met           Metrics
	Err           string // "" for a clean run
	ResultsDigest uint64
	N             int
}

// appendMetrics encodes every Metrics field in struct order. The field list
// is pinned by TestTranscriptMetricsCoverEveryField: adding a Metrics field
// without extending this (and decodeMetrics) fails the build's tests rather
// than silently dropping the field from transcripts.
func appendMetrics(b []byte, m *Metrics) []byte {
	b = binary.AppendUvarint(b, uint64(m.Rounds))
	b = binary.AppendUvarint(b, uint64(m.Messages))
	b = binary.AppendUvarint(b, uint64(m.SlotsIdle))
	b = binary.AppendUvarint(b, uint64(m.SlotsSuccess))
	b = binary.AppendUvarint(b, uint64(m.SlotsCollision))
	b = binary.AppendUvarint(b, uint64(m.DroppedHalted))
	b = binary.AppendUvarint(b, uint64(m.Crashed))
	b = binary.AppendUvarint(b, uint64(m.DroppedFault))
	b = binary.AppendUvarint(b, uint64(m.Delayed))
	b = binary.AppendUvarint(b, uint64(m.Duplicated))
	b = binary.AppendUvarint(b, uint64(m.SlotsJammed))
	b = binary.AppendUvarint(b, uint64(m.PartitionedDrop))
	b = binary.AppendUvarint(b, uint64(m.Restarted))
	b = binary.AppendUvarint(b, uint64(m.Skewed))
	return b
}

// transcriptMetricsFields is the number of Metrics fields on the wire,
// cross-checked against the struct by reflection in tests.
const transcriptMetricsFields = 14

func decodeMetrics(d *frameDecoder, m *Metrics) {
	m.Rounds = int(d.uvarint())
	m.Messages = int64(d.uvarint())
	m.SlotsIdle = int64(d.uvarint())
	m.SlotsSuccess = int64(d.uvarint())
	m.SlotsCollision = int64(d.uvarint())
	m.DroppedHalted = int64(d.uvarint())
	m.Crashed = int64(d.uvarint())
	m.DroppedFault = int64(d.uvarint())
	m.Delayed = int64(d.uvarint())
	m.Duplicated = int64(d.uvarint())
	m.SlotsJammed = int64(d.uvarint())
	m.PartitionedDrop = int64(d.uvarint())
	m.Restarted = int64(d.uvarint())
	m.Skewed = int64(d.uvarint())
}

// TranscriptWriter streams a run's transcript. The engine drives it through
// its coordinator loop; commands own the underlying writer and must call
// Close to flush. Write errors are sticky and reported by Close (and Err),
// never mid-run: a failing disk aborts the transcript, not the simulation.
type TranscriptWriter struct {
	dst     io.Writer
	bw      *bufio.Writer
	gz      *gzip.Writer
	out     io.Writer // frame destination: gz when compressing, else bw
	started bool
	err     error

	frame   []byte // frame scratch, reused
	scratch []byte // digest scratch, reused
	touched []int32
	nodes   []NodeDigest
}

// NewTranscriptWriter builds a streaming transcript writer over w,
// optionally gzip-compressing everything after the 6-byte prelude.
func NewTranscriptWriter(w io.Writer, gzipped bool) *TranscriptWriter {
	tw := &TranscriptWriter{dst: w, bw: bufio.NewWriter(w)}
	tw.out = tw.bw
	if gzipped {
		tw.gz = gzip.NewWriter(tw.bw)
		tw.out = tw.gz
	}
	return tw
}

// WriteHeader writes the prelude and header frame. The engine calls it
// through begin on the first round; commands stitching transcripts call it
// directly. Repeated calls are errors.
func (tw *TranscriptWriter) WriteHeader(h *TranscriptHeader) {
	if tw.err != nil {
		return
	}
	if tw.started {
		tw.fail(errors.New("sim: transcript header written twice"))
		return
	}
	tw.started = true
	flags := byte(0)
	if tw.gz != nil {
		flags |= tflagGzip
	}
	prelude := []byte{transcriptMagic[0], transcriptMagic[1], transcriptMagic[2], transcriptMagic[3], TranscriptVersion, flags}
	if _, err := tw.bw.Write(prelude); err != nil {
		tw.fail(err)
		return
	}
	b := tw.frame[:0]
	b = binary.AppendUvarint(b, uint64(h.N))
	b = binary.AppendUvarint(b, zigzag(h.Seed))
	b = binary.AppendUvarint(b, uint64(len(h.Plan)))
	b = append(b, h.Plan...)
	b = binary.AppendUvarint(b, uint64(len(h.Label)))
	b = append(b, h.Label...)
	tw.frame = b
	tw.emit(frameHeader, b)
}

// begin lazily writes the header on behalf of the engine.
func (tw *TranscriptWriter) begin(n int, seed int64, plan string) {
	if tw.started {
		return
	}
	tw.WriteHeader(&TranscriptHeader{N: n, Seed: seed, Plan: plan})
}

// WriteRound appends one round frame. Frames must be written in ascending
// round order with f.Nodes sorted by node id; the engine guarantees both.
func (tw *TranscriptWriter) WriteRound(f *RoundFrame) {
	if tw.err != nil {
		return
	}
	b := tw.frame[:0]
	b = binary.AppendUvarint(b, uint64(f.Round))
	b = append(b, byte(f.Slot))
	if f.Slot == SlotSuccess {
		b = binary.AppendUvarint(b, uint64(f.From))
		b = binary.LittleEndian.AppendUint64(b, f.SlotDigest)
	}
	b = binary.AppendUvarint(b, uint64(f.Alive))
	b = appendMetrics(b, &f.Met)
	b = binary.AppendUvarint(b, uint64(len(f.Nodes)))
	prev := graph.NodeID(0)
	for i := range f.Nodes {
		b = binary.AppendUvarint(b, uint64(f.Nodes[i].Node-prev))
		b = binary.LittleEndian.AppendUint64(b, f.Nodes[i].Digest)
		prev = f.Nodes[i].Node
	}
	tw.frame = b
	tw.emit(frameRound, b)
}

// WriteFinal appends the closing frame.
func (tw *TranscriptWriter) WriteFinal(f *FinalFrame) {
	if tw.err != nil {
		return
	}
	b := tw.frame[:0]
	b = appendMetrics(b, &f.Met)
	b = binary.AppendUvarint(b, uint64(len(f.Err)))
	b = append(b, f.Err...)
	b = binary.LittleEndian.AppendUint64(b, f.ResultsDigest)
	b = binary.AppendUvarint(b, uint64(f.N))
	tw.frame = b
	tw.emit(frameFinal, b)
}

// emit frames one body: kind, length, body, crc.
func (tw *TranscriptWriter) emit(kind byte, body []byte) {
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = kind
	n := binary.PutUvarint(hdr[1:], uint64(len(body)))
	if _, err := tw.out.Write(hdr[:1+n]); err != nil {
		tw.fail(err)
		return
	}
	if _, err := tw.out.Write(body); err != nil {
		tw.fail(err)
		return
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	if _, err := tw.out.Write(crc[:]); err != nil {
		tw.fail(err)
	}
}

func (tw *TranscriptWriter) fail(err error) {
	if tw.err == nil {
		tw.err = err
	}
}

// Err returns the first write error, if any.
func (tw *TranscriptWriter) Err() error { return tw.err }

// Close flushes the stream (finishing the gzip member when compressing) and
// returns the first error encountered anywhere in the transcript's life.
// It does not close the underlying writer.
func (tw *TranscriptWriter) Close() error {
	if tw.gz != nil {
		if err := tw.gz.Close(); err != nil {
			tw.fail(err)
		}
		tw.gz = nil
	}
	if err := tw.bw.Flush(); err != nil {
		tw.fail(err)
	}
	return tw.err
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// frameDecoder walks one frame body, latching the first error.
type frameDecoder struct {
	b   []byte
	err error
}

func (d *frameDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("sim: transcript frame truncated")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *frameDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = errors.New("sim: transcript frame truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *frameDecoder) uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = errors.New("sim: transcript frame truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *frameDecoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = errors.New("sim: transcript frame truncated")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// TranscriptReader decodes a transcript stream: the header eagerly, then
// one frame per Next call.
type TranscriptReader struct {
	br     *bufio.Reader
	gz     *gzip.Reader
	in     io.Reader
	header TranscriptHeader
	done   bool
}

// NewTranscriptReader opens a transcript, validating the prelude and
// decoding the header frame.
func NewTranscriptReader(r io.Reader) (*TranscriptReader, error) {
	tr := &TranscriptReader{br: bufio.NewReader(r)}
	var prelude [6]byte
	if _, err := io.ReadFull(tr.br, prelude[:]); err != nil {
		return nil, fmt.Errorf("sim: transcript prelude: %w", err)
	}
	if string(prelude[:4]) != transcriptMagic {
		return nil, fmt.Errorf("sim: not a transcript (magic %q)", prelude[:4])
	}
	if prelude[4] != TranscriptVersion {
		return nil, fmt.Errorf("sim: transcript version %d (reader supports %d)", prelude[4], TranscriptVersion)
	}
	tr.header.Version = int(prelude[4])
	tr.in = tr.br
	if prelude[5]&tflagGzip != 0 {
		gz, err := gzip.NewReader(tr.br)
		if err != nil {
			return nil, fmt.Errorf("sim: transcript gzip stream: %w", err)
		}
		tr.gz, tr.in = gz, gz
		tr.header.Gzip = true
	}
	kind, body, err := tr.frame()
	if err != nil {
		return nil, fmt.Errorf("sim: transcript header frame: %w", err)
	}
	if kind != frameHeader {
		return nil, fmt.Errorf("sim: transcript starts with frame kind %d, want header", kind)
	}
	d := frameDecoder{b: body}
	tr.header.N = int(d.uvarint())
	tr.header.Seed = unzigzag(d.uvarint())
	tr.header.Plan = string(d.bytes(d.uvarint()))
	tr.header.Label = string(d.bytes(d.uvarint()))
	if d.err != nil {
		return nil, d.err
	}
	return tr, nil
}

// Header returns the decoded transcript header.
func (tr *TranscriptReader) Header() TranscriptHeader { return tr.header }

// frame reads one raw frame, verifying its crc.
func (tr *TranscriptReader) frame() (byte, []byte, error) {
	var kind [1]byte
	if _, err := io.ReadFull(tr.in, kind[:]); err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(byteReaderOf(tr.in))
	if err != nil {
		return 0, nil, fmt.Errorf("frame length: %w", err)
	}
	if size > 1<<30 {
		return 0, nil, fmt.Errorf("frame length %d implausible", size)
	}
	body, err := readBody(tr.in, size+4)
	if err != nil {
		return 0, nil, fmt.Errorf("frame body: %w", err)
	}
	want := binary.LittleEndian.Uint32(body[size:])
	body = body[:size]
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, nil, fmt.Errorf("frame crc mismatch: %08x != %08x", got, want)
	}
	return kind[0], body, nil
}

// bodyChunk is the most a length-prefixed body read allocates before any of
// the body has arrived.
const bodyChunk = 64 << 10

// readBody reads exactly n bytes, with io.ReadFull's errors. The buffer
// grows with the bytes actually read — bodyChunk first, then doubling — so
// a corrupt or hostile length prefix fails at end of input having
// allocated about twice what the input carried, not what it claimed.
func readBody(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, min(n, bodyChunk))
	read := 0
	for {
		m, err := io.ReadFull(r, buf[read:])
		read += m
		if err == io.EOF && read > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if uint64(read) == n {
			return buf, nil
		}
		next := make([]byte, min(n, 2*uint64(read)))
		copy(next, buf)
		buf = next
	}
}

// byteReaderOf adapts the reader for ReadUvarint; both concrete stream types
// (bufio.Reader, gzip.Reader) already implement io.ByteReader.
func byteReaderOf(r io.Reader) io.ByteReader {
	if br, ok := r.(io.ByteReader); ok {
		return br
	}
	return &oneByteReader{r}
}

type oneByteReader struct{ r io.Reader }

func (o *oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(o.r, b[:])
	return b[0], err
}

// Next decodes the next frame: exactly one of the returns is non-nil. After
// the final frame (or a clean EOF on a truncated-but-frame-aligned stream)
// it returns (nil, nil, io.EOF).
func (tr *TranscriptReader) Next() (*RoundFrame, *FinalFrame, error) {
	if tr.done {
		return nil, nil, io.EOF
	}
	kind, body, err := tr.frame()
	if err != nil {
		if errors.Is(err, io.EOF) {
			tr.done = true
			return nil, nil, io.EOF
		}
		return nil, nil, err
	}
	d := frameDecoder{b: body}
	switch kind {
	case frameRound:
		f := &RoundFrame{}
		f.Round = int(d.uvarint())
		f.Slot = SlotState(d.byte())
		if f.Slot == SlotSuccess {
			f.From = graph.NodeID(d.uvarint())
			f.SlotDigest = d.uint64()
		}
		f.Alive = int(d.uvarint())
		decodeMetrics(&d, &f.Met)
		k := d.uvarint()
		if k > uint64(len(body)) { // each entry is ≥ 9 bytes; cheap bound
			return nil, nil, errors.New("sim: transcript node count implausible")
		}
		f.Nodes = make([]NodeDigest, 0, k)
		node := graph.NodeID(0)
		for i := uint64(0); i < k; i++ {
			node += graph.NodeID(d.uvarint())
			f.Nodes = append(f.Nodes, NodeDigest{Node: node, Digest: d.uint64()})
		}
		if d.err != nil {
			return nil, nil, d.err
		}
		return f, nil, nil
	case frameFinal:
		f := &FinalFrame{}
		decodeMetrics(&d, &f.Met)
		f.Err = string(d.bytes(d.uvarint()))
		f.ResultsDigest = d.uint64()
		f.N = int(d.uvarint())
		if d.err != nil {
			return nil, nil, d.err
		}
		tr.done = true
		return nil, f, nil
	default:
		return nil, nil, fmt.Errorf("sim: unknown transcript frame kind %d", kind)
	}
}

// DefaultTranscript is the writer a run streams to when no WithTranscript
// option is given; nil (the default) means transcripts off. Unlike
// DefaultFaults there is no command-global default: multi-run algorithms
// would interleave several runs into one stream, so commands pass
// WithTranscript explicitly to single-run protocols instead.
var DefaultTranscript *TranscriptWriter

// WithTranscript streams this run's transcript to tw (nil keeps the
// default). By the determinism contract the transcript is an observation:
// installing a writer never changes the run itself.
func WithTranscript(tw *TranscriptWriter) Option {
	return func(c *config) { c.tw = tw }
}
