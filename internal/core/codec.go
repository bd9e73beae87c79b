package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Wire serialization for messages that cross OS-process boundaries (the
// TCP transport). In-process messages are never serialized — the paper's
// intra-cluster fast path.
//
// The codec is a hand-rolled binary format: a fixed 57-byte header
// (magic, version, Kind, To, Entry, Prio, Bytes, SrcPE, DstPE, and the
// causal trace context ID/Parent) followed by a tagged payload. Scalars,
// []float64, strings, byte slices, the per-message runtime payloads
// (ReducePartial, quiescence probes), bundles and []any lists (the last
// two encoding recursively) have hand-written fast paths under built-in
// tags. Every other payload is a struct whose PUP method is its codec —
// the runtime's load-balancing messages under a built-in tag, and every
// application type under the tag it gives RegisterPUPPayload — so
// messages serialize through the same visitor as migration and
// checkpoints. A payload type with no codec is an encode error.

// Message wire layout (big-endian):
//
//	off len field
//	  0   2  magic 0x474D ("GM")
//	  2   1  version (3)
//	  3   1  Kind
//	  4   4  To.Array (int32)
//	  8   8  To.Index (int64)
//	 16   4  Entry (int32)
//	 20   4  Prio (int32)
//	 24   8  Bytes (int64)
//	 32   4  SrcPE (int32)
//	 36   4  DstPE (int32)
//	 40   8  ID (uint64, causal trace context)
//	 48   8  Parent (uint64, causal trace context)
//	 56   1  payload tag
//	 57   …  payload (tag-specific)
//
// Version 2 added the 16-byte trace context (ID, Parent) so causality
// survives the TCP hop. Version 3 moved application and LB payloads from
// varint codecs, hand-written layouts and gob onto PUP under unchanged
// tags, so older frames are rejected rather than misparsed.
const (
	wireMagic    uint16 = 0x474D
	wireVersion  byte   = 3
	msgHeaderLen        = 57
)

// Payload tags. Tags 0–63 are reserved for the runtime's built-in
// payloads; 64–254 are available to applications via RegisterPUPPayload
// (DESIGN.md lists the blocks each package uses). 255 was the removed
// gob fallback's tag and stays unassigned.
const (
	tagNil      byte = 0
	tagInt      byte = 1
	tagInt64    byte = 2
	tagFloat64  byte = 3
	tagF64Slice byte = 4
	tagString   byte = 5
	tagBytes    byte = 6
	tagBool     byte = 7
	tagReduce   byte = 8
	tagQD       byte = 9
	tagBundle   byte = 10
	tagLB       byte = 11
	tagList     byte = 12

	minAppTag byte = 64
	maxAppTag byte = 254
)

// ErrBadWire is wrapped by all structural decode failures.
var ErrBadWire = errors.New("core: malformed wire message")

// payloadCodec moves one registered payload type through a PUP visitor.
type payloadCodec struct {
	pack   func(p *PUP, v any)
	unpack func(p *PUP) any
}

var (
	payloadMu     sync.RWMutex
	payloadByType = map[reflect.Type]byte{}
	payloadByTag  = map[byte]payloadCodec{}
)

// RegisterPUPPayload makes T a wire payload under the given tag (which
// must be in [64, 254]): its PUP method writes the payload on encode and
// fills a zero T on decode. Every process of a job must register the
// same types under the same tags, which registering from an init
// function guarantees. It panics on tag or type conflicts.
func RegisterPUPPayload[T any, PT interface {
	*T
	PUPable
}](tag byte) {
	if tag < minAppTag || tag > maxAppTag {
		panic(fmt.Sprintf("core: payload tag %d outside application range [%d,%d]", tag, minAppTag, maxAppTag))
	}
	registerPUP[T, PT](tag)
}

// The runtime's own struct payloads that are not on a per-message hot
// path are PUP'd under built-in tags.
func init() { registerPUP[lbMsg](tagLB) }

func registerPUP[T any, PT interface {
	*T
	PUPable
}](tag byte) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	payloadMu.Lock()
	defer payloadMu.Unlock()
	if _, dup := payloadByTag[tag]; dup {
		panic(fmt.Sprintf("core: payload tag %d registered twice", tag))
	}
	if _, dup := payloadByType[t]; dup {
		panic(fmt.Sprintf("core: payload type %v registered twice", t))
	}
	payloadByTag[tag] = payloadCodec{
		pack: func(p *PUP, v any) {
			x := v.(T)
			PT(&x).PUP(p)
		},
		unpack: func(p *PUP) any {
			var x T
			PT(&x).PUP(p)
			return x
		},
	}
	payloadByType[t] = tag
}

// EncodeMessage serializes a message for the TCP transport.
func EncodeMessage(m *Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// AppendMessage appends m's wire encoding to dst and returns the extended
// slice. The transport path calls it with pooled buffers so steady-state
// sends do not allocate.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, wireMagic)
	dst = append(dst, wireVersion, byte(m.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.To.Array))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.To.Index)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Entry))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Prio))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.Bytes)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.SrcPE))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.DstPE))
	dst = binary.BigEndian.AppendUint64(dst, m.ID)
	dst = binary.BigEndian.AppendUint64(dst, m.Parent)
	dst, err := appendPayload(dst, m.Data)
	if err != nil {
		return nil, fmt.Errorf("core: encode message %v: %w", m, err)
	}
	return dst, nil
}

// DecodeMessage reverses EncodeMessage. The input must contain exactly one
// message; nothing in the result aliases b, so callers may recycle it.
func DecodeMessage(b []byte) (*Message, error) {
	m, rest, err := decodeMessage(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadWire, len(rest))
	}
	return m, nil
}

func decodeMessage(b []byte) (*Message, []byte, error) {
	if len(b) < msgHeaderLen {
		return nil, b, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadWire, len(b))
	}
	if binary.BigEndian.Uint16(b[0:]) != wireMagic {
		return nil, b, fmt.Errorf("%w: bad magic", ErrBadWire)
	}
	if b[2] != wireVersion {
		return nil, b, fmt.Errorf("%w: version %d, want %d", ErrBadWire, b[2], wireVersion)
	}
	m := &Message{
		Kind:   Kind(b[3]),
		To:     ElemRef{Array: ArrayID(int32(binary.BigEndian.Uint32(b[4:]))), Index: int(int64(binary.BigEndian.Uint64(b[8:])))},
		Entry:  EntryID(int32(binary.BigEndian.Uint32(b[16:]))),
		Prio:   int32(binary.BigEndian.Uint32(b[20:])),
		Bytes:  int(int64(binary.BigEndian.Uint64(b[24:]))),
		SrcPE:  int32(binary.BigEndian.Uint32(b[32:])),
		DstPE:  int32(binary.BigEndian.Uint32(b[36:])),
		ID:     binary.BigEndian.Uint64(b[40:]),
		Parent: binary.BigEndian.Uint64(b[48:]),
	}
	data, rest, err := decodePayload(b[56], b[msgHeaderLen:])
	if err != nil {
		return nil, b, err
	}
	m.Data = data
	return m, rest, nil
}

// appendPayload writes the tag byte and tag-specific encoding of v.
func appendPayload(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case int:
		dst = append(dst, tagInt)
		return binary.BigEndian.AppendUint64(dst, uint64(int64(x))), nil
	case int64:
		dst = append(dst, tagInt64)
		return binary.BigEndian.AppendUint64(dst, uint64(x)), nil
	case float64:
		dst = append(dst, tagFloat64)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case []float64:
		dst = append(dst, tagF64Slice)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		for _, f := range x {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	case string:
		dst = append(dst, tagString)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case []byte:
		dst = append(dst, tagBytes)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, tagBool, b), nil
	case ReducePartial:
		dst = append(dst, tagReduce)
		dst = binary.BigEndian.AppendUint32(dst, uint32(x.Array))
		dst = binary.BigEndian.AppendUint64(dst, uint64(x.Seq))
		dst = append(dst, byte(x.Op))
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(x.Contribs)))
		return appendPayload(dst, x.Value)
	case qdMsg:
		probe := byte(0)
		if x.Probe {
			probe = 1
		}
		dst = append(dst, tagQD, probe)
		dst = binary.BigEndian.AppendUint64(dst, uint64(x.Wave))
		dst = binary.BigEndian.AppendUint64(dst, uint64(x.Sent))
		return binary.BigEndian.AppendUint64(dst, uint64(x.Processed)), nil
	case []*Message:
		dst = append(dst, tagBundle)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		var err error
		for _, sub := range x {
			if dst, err = AppendMessage(dst, sub); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case []any:
		dst = append(dst, tagList)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		var err error
		for _, e := range x {
			if dst, err = appendPayload(dst, e); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		payloadMu.RLock()
		tag, ok := payloadByType[reflect.TypeOf(v)]
		c := payloadByTag[tag]
		payloadMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("payload type %T has no wire codec: give it a PUP method and register it with core.RegisterPUPPayload", v)
		}
		p := &PUP{mode: pupPacking, buf: append(dst, tag)}
		c.pack(p, v)
		if p.err != nil {
			return nil, fmt.Errorf("payload %T: %w", v, p.err)
		}
		return p.buf, nil
	}
}

// decodePayload parses one tagged payload body. Everything returned is
// freshly allocated — nothing aliases b.
func decodePayload(tag byte, b []byte) (any, []byte, error) {
	switch tag {
	case tagNil:
		return nil, b, nil
	case tagInt:
		if len(b) < 8 {
			return nil, b, truncErr("int")
		}
		return int(int64(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagInt64:
		if len(b) < 8 {
			return nil, b, truncErr("int64")
		}
		return int64(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, b, truncErr("float64")
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagF64Slice:
		if len(b) < 4 {
			return nil, b, truncErr("[]float64")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > len(b)/8 {
			return nil, b, truncErr("[]float64")
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
		}
		return out, b[8*n:], nil
	case tagString:
		if len(b) < 4 {
			return nil, b, truncErr("string")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, b, truncErr("string")
		}
		return string(b[:n]), b[n:], nil
	case tagBytes:
		if len(b) < 4 {
			return nil, b, truncErr("[]byte")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, b, truncErr("[]byte")
		}
		return append([]byte(nil), b[:n]...), b[n:], nil
	case tagBool:
		if len(b) < 1 {
			return nil, b, truncErr("bool")
		}
		return b[0] != 0, b[1:], nil
	case tagReduce:
		// Fixed prefix (reducePartialHeaderLen bytes) plus at least the
		// nested payload's tag byte.
		if len(b) < reducePartialHeaderLen+1 {
			return nil, b, truncErr("ReducePartial")
		}
		p := ReducePartial{
			Array:    ArrayID(int32(binary.BigEndian.Uint32(b))),
			Seq:      int64(binary.BigEndian.Uint64(b[4:])),
			Op:       ReduceOp(b[12]),
			Contribs: int(int64(binary.BigEndian.Uint64(b[13:]))),
		}
		v, rest, err := decodePayload(b[21], b[22:])
		if err != nil {
			return nil, b, err
		}
		p.Value = v
		return p, rest, nil
	case tagQD:
		if len(b) < 25 {
			return nil, b, truncErr("qdMsg")
		}
		return qdMsg{
			Probe:     b[0] != 0,
			Wave:      int64(binary.BigEndian.Uint64(b[1:])),
			Sent:      int64(binary.BigEndian.Uint64(b[9:])),
			Processed: int64(binary.BigEndian.Uint64(b[17:])),
		}, b[25:], nil
	case tagBundle:
		if len(b) < 4 {
			return nil, b, truncErr("bundle")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		// Each sub-message needs at least a header; reject counts the
		// remaining bytes cannot possibly satisfy before allocating.
		if n > len(b)/msgHeaderLen {
			return nil, b, truncErr("bundle")
		}
		subs := make([]*Message, n)
		for i := range subs {
			var err error
			if subs[i], b, err = decodeMessage(b); err != nil {
				return nil, b, err
			}
		}
		return subs, b, nil
	case tagList:
		if len(b) < 4 {
			return nil, b, truncErr("list")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		// Each element needs at least its tag byte.
		if n > len(b) {
			return nil, b, truncErr("list")
		}
		out := make([]any, n)
		for i := range out {
			if len(b) < 1 {
				return nil, b, truncErr("list")
			}
			var err error
			if out[i], b, err = decodePayload(b[0], b[1:]); err != nil {
				return nil, b, err
			}
		}
		return out, b, nil
	default:
		payloadMu.RLock()
		c, ok := payloadByTag[tag]
		payloadMu.RUnlock()
		if !ok {
			return nil, b, fmt.Errorf("%w: unknown payload tag %d", ErrBadWire, tag)
		}
		p := &PUP{mode: pupUnpacking, buf: b}
		v := c.unpack(p)
		if p.err != nil {
			return nil, b, fmt.Errorf("%w: payload tag %d: %w", ErrBadWire, tag, p.err)
		}
		return v, b[p.off:], nil
	}
}

func truncErr(what string) error {
	return fmt.Errorf("%w: truncated %s payload", ErrBadWire, what)
}

// reducePartialHeaderLen documents the fixed prefix decoded above: Array
// (4) + Seq (8) + Op (1) + Contribs (8), followed by a nested payload.
const reducePartialHeaderLen = 21
