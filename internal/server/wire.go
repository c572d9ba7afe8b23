// Package server is the gridding-as-a-service layer: a long-running
// multi-tenant HTTP server in which clients open observation sessions,
// stream visibility chunks over a length-prefixed binary wire format,
// and fetch the finished grid. It composes the existing layers behind
// a network boundary — the pass engine bounds per-session
// memory (MaxInflightChunks), checkpoints make drained sessions
// resumable, and the observability layer meters every
// session stage — without importing the facade: the gridding itself is
// injected through the Backend interface, which the root package
// implements on Observation.
package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
)

// Wire format: a stream of self-delimiting frames, each
//
//	magic "IDGF" | version 1 byte | type 1 byte | payload len uint32 LE
//	payload (len bytes)
//	CRC-64/ECMA over header+payload, uint64 LE
//
// The payload length is validated against the frame type and the
// configured cap before any allocation, mirroring the checkpoint and
// dataio readers: a corrupt or hostile length field is rejected with a
// descriptive error instead of an attempted huge allocation.

const (
	frameMagic   = "IDGF"
	frameVersion = 1
	// frameHeaderSize is magic + version + type + payload length.
	frameHeaderSize = len(frameMagic) + 1 + 1 + 4
)

// Frame types.
const (
	// FrameVis carries visibility samples for one baseline range:
	// payload = baseline uint32 | sample offset uint32 | sample count
	// uint32 | count samples of 8 float32 (4 correlations, re/im
	// interleaved — the dataio visibility encoding).
	FrameVis byte = 1
	// FrameDone marks the end of a visibility stream; its payload is
	// empty. A stream may also end at EOF without one.
	FrameDone byte = 2
)

const (
	// visPayloadHeader is the fixed prefix of a FrameVis payload.
	visPayloadHeader = 12
	// VisSampleBytes is the wire size of one visibility sample
	// (4 correlations x 2 float32 components).
	VisSampleBytes = 32
	// DefaultMaxFramePayload caps a frame payload when the server
	// config does not override it (4 MiB = ~128k samples per frame).
	DefaultMaxFramePayload = 4 << 20
	// MinFramePayloadCap is the smallest useful payload cap: one
	// visibility sample plus the FrameVis prefix.
	MinFramePayloadCap = visPayloadHeader + VisSampleBytes
)

var wireCRCTable = crc64.MakeTable(crc64.ECMA)

// Frame is one decoded wire frame.
type Frame struct {
	Type    byte
	Payload []byte
}

// FrameRule validates the declared payload length of one frame type
// before any allocation happens. Protocols built on the frame layer
// (the session stream here, the distributed reduction stream in
// internal/distrib) each register their own type table; a frame whose
// type has no rule is rejected as unknown.
type FrameRule func(payloadLen int64) error

// sessionRules is the frame-type table of the visibility session
// stream.
var sessionRules = map[byte]FrameRule{
	FrameVis: func(n int64) error {
		if n < visPayloadHeader || (n-visPayloadHeader)%VisSampleBytes != 0 {
			return fmt.Errorf("server: FrameVis payload of %d bytes is not %d + k*%d", n, visPayloadHeader, VisSampleBytes)
		}
		return nil
	},
	FrameDone: func(n int64) error {
		if n != 0 {
			return fmt.Errorf("server: FrameDone with %d payload bytes", n)
		}
		return nil
	},
}

// VisChunk is a decoded FrameVis: a run of samples of one baseline,
// starting at SampleOffset in the baseline's t*nrChannels+c sample
// order. Samples holds 8 float32 per visibility in dataio order.
type VisChunk struct {
	Baseline     int
	SampleOffset int
	Samples      []float32
}

// WriteFrame encodes one frame.
func WriteFrame(w io.Writer, f Frame) error {
	hdr := make([]byte, frameHeaderSize)
	copy(hdr, frameMagic)
	hdr[4] = frameVersion
	hdr[5] = f.Type
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(f.Payload)))
	crc := crc64.New(wireCRCTable)
	crc.Write(hdr)
	crc.Write(f.Payload)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(f.Payload); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc.Sum64())
	_, err := w.Write(sum[:])
	return err
}

// ReadFrame decodes one session-stream frame, enforcing the payload
// cap (<= 0 selects DefaultMaxFramePayload) before allocating. io.EOF
// is returned unwrapped only when the stream ends cleanly between
// frames, so callers can treat it as end-of-stream; a frame cut off
// mid-way is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	return ReadFrameRules(r, maxPayload, sessionRules)
}

// ReadFrameRules decodes one frame whose type must appear in rules;
// the matching rule validates the declared payload length (and the
// cap is enforced) before the payload allocation. It is the shared
// entry point behind ReadFrame and the distributed reduction stream's
// reader.
func ReadFrameRules(r io.Reader, maxPayload int, rules map[byte]FrameRule) (Frame, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFramePayload
	}
	hdr := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, err // io.EOF: clean end of stream
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("server: reading frame header: %w", err)
	}
	if string(hdr[:4]) != frameMagic {
		return Frame{}, fmt.Errorf("server: bad frame magic %q", hdr[:4])
	}
	if hdr[4] != frameVersion {
		return Frame{}, fmt.Errorf("server: unsupported frame version %d", hdr[4])
	}
	f := Frame{Type: hdr[5]}
	n := int64(binary.LittleEndian.Uint32(hdr[6:]))
	// Type- and cap-check the length before the payload allocation.
	rule, ok := rules[f.Type]
	if !ok {
		return Frame{}, fmt.Errorf("server: unknown frame type %d", f.Type)
	}
	if err := rule(n); err != nil {
		return Frame{}, err
	}
	if n > int64(maxPayload) {
		return Frame{}, fmt.Errorf("server: frame payload of %d bytes exceeds the %d-byte cap", n, maxPayload)
	}
	crc := crc64.New(wireCRCTable)
	crc.Write(hdr)
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, fmt.Errorf("server: reading %d-byte frame payload: %w", n, err)
		}
		crc.Write(f.Payload)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("server: reading frame checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != crc.Sum64() {
		return Frame{}, fmt.Errorf("server: frame checksum mismatch: wire %016x, computed %016x", got, crc.Sum64())
	}
	return f, nil
}

// EncodeVis builds a FrameVis for one run of samples; len(samples)
// must be a multiple of 8 (one visibility = 8 float32).
func EncodeVis(baseline, sampleOffset int, samples []float32) (Frame, error) {
	if len(samples)%8 != 0 {
		return Frame{}, fmt.Errorf("server: %d floats is not a whole number of visibilities", len(samples))
	}
	if baseline < 0 || sampleOffset < 0 {
		return Frame{}, fmt.Errorf("server: negative baseline %d or offset %d", baseline, sampleOffset)
	}
	count := len(samples) / 8
	p := make([]byte, visPayloadHeader+count*VisSampleBytes)
	binary.LittleEndian.PutUint32(p[0:], uint32(baseline))
	binary.LittleEndian.PutUint32(p[4:], uint32(sampleOffset))
	binary.LittleEndian.PutUint32(p[8:], uint32(count))
	for i, s := range samples {
		binary.LittleEndian.PutUint32(p[visPayloadHeader+4*i:], math.Float32bits(s))
	}
	return Frame{Type: FrameVis, Payload: p}, nil
}

// DecodeVis decodes a FrameVis payload, cross-checking the embedded
// sample count against the payload length.
func (f Frame) DecodeVis() (VisChunk, error) {
	if f.Type != FrameVis {
		return VisChunk{}, fmt.Errorf("server: decoding frame type %d as FrameVis", f.Type)
	}
	if len(f.Payload) < visPayloadHeader {
		return VisChunk{}, fmt.Errorf("server: FrameVis payload of %d bytes is shorter than its %d-byte prefix", len(f.Payload), visPayloadHeader)
	}
	c := VisChunk{
		Baseline:     int(binary.LittleEndian.Uint32(f.Payload[0:])),
		SampleOffset: int(binary.LittleEndian.Uint32(f.Payload[4:])),
	}
	count := int(binary.LittleEndian.Uint32(f.Payload[8:]))
	if got := (len(f.Payload) - visPayloadHeader) / VisSampleBytes; count != got || (len(f.Payload)-visPayloadHeader)%VisSampleBytes != 0 {
		return VisChunk{}, fmt.Errorf("server: FrameVis declares %d samples but carries %d bytes of data", count, len(f.Payload)-visPayloadHeader)
	}
	c.Samples = make([]float32, count*8)
	for i := range c.Samples {
		c.Samples[i] = math.Float32frombits(binary.LittleEndian.Uint32(f.Payload[visPayloadHeader+4*i:]))
	}
	return c, nil
}
