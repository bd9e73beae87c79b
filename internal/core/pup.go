package core

// PUP — pack/unpack — is the single serialization contract for element
// state and messages. One visitor method written by the application
// serves every consumer: load-balancer migration (evict→arrive over the
// wire), checkpoint/restart (including restart on a different PE count),
// AMPI rank migration, and message payloads on the TCP transport
// (RegisterPUPPayload). This mirrors the Charm++ PUP framework (§2.1 of
// the paper), where migration, checkpointing, shrink/expand and messages
// all ride the same pup() routine.
//
// A PUP runs in one of three modes over a flat byte buffer:
//
//   - sizing:    every call accumulates the encoded size; nothing is read
//     or written. PUPPack runs this pass first so buffers are allocated
//     exactly once and Bytes reported to the delay/bandwidth model are
//     honest.
//   - packing:   every call appends the value big-endian to the buffer.
//   - unpacking: every call reads the value back into the pointee.
//
// The same method body drives all three, so pack and unpack cannot drift
// apart. Applications branch on Unpacking() only for post-read fix-ups
// (rebuilding derived state, validating against the target program) and
// report validation failures with Errorf.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// PUPable is state that can be serialized through a PUP visitor. The
// method must traverse the same fields in the same order regardless of
// mode; helpers like PUPPack and PUPUnpack rely on that symmetry.
type PUPable interface {
	PUP(p *PUP)
}

// Migratable marks a chare whose state can move between PEs — the
// requirement for load-balancer migration and checkpointing.
type Migratable interface {
	Chare
	PUPable
}

type pupMode uint8

const (
	pupSizing pupMode = iota
	pupPacking
	pupUnpacking
)

// PUP is the visitor passed to PUPable.PUP. The zero value is not
// usable; obtain one through PUPSize, PUPPack, or PUPUnpack.
type PUP struct {
	mode       pupMode
	checkpoint bool   // checkpoint/restart pass rather than live migration
	buf        []byte // packing: destination; unpacking: source
	off        int    // read/write cursor into buf
	size       int    // sizing: accumulated byte count
	err        error  // first error; all later calls are no-ops
}

// Sizing reports whether this pass only measures the encoded size.
func (p *PUP) Sizing() bool { return p.mode == pupSizing }

// Packing reports whether this pass writes state into the buffer.
func (p *PUP) Packing() bool { return p.mode == pupPacking }

// Unpacking reports whether this pass reads state out of the buffer.
// Applications use it to run post-read fix-ups and validation.
func (p *PUP) Unpacking() bool { return p.mode == pupUnpacking }

// Checkpointing reports whether this pass serves checkpoint/restart
// rather than a live migration — the analogue of Charm++'s pup_er flags.
// The byte layout must be identical either way (a checkpoint written on
// one run restores state a migration packed the same way); the flag only
// gates validation that applies to one consumer. A restored element joins
// a program whose reduction sequence starts from scratch, while a
// migrating element carries its reduction history with it, so a check
// like "the warmup round must still be ahead of us" is correct under
// Checkpointing and wrong during migration.
func (p *PUP) Checkpointing() bool { return p.checkpoint }

// Err returns the first error recorded on this visitor, if any.
func (p *PUP) Err() error { return p.err }

// Errorf records a failure (typically a validation failure during
// unpacking, e.g. a checkpoint whose geometry does not match the target
// program). The first error sticks; subsequent visitor calls become
// no-ops so the method body can return early or fall through safely.
func (p *PUP) Errorf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *PUP) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// remaining returns how many bytes of the source buffer are unread.
func (p *PUP) remaining() int { return len(p.buf) - p.off }

// raw8 moves one 8-byte big-endian word through the visitor.
func (p *PUP) raw8(v *uint64) {
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += 8
	case pupPacking:
		p.buf = binary.BigEndian.AppendUint64(p.buf, *v)
	case pupUnpacking:
		if p.remaining() < 8 {
			p.fail(fmt.Errorf("pup: truncated buffer (need 8 bytes at offset %d, have %d)", p.off, p.remaining()))
			return
		}
		*v = binary.BigEndian.Uint64(p.buf[p.off:])
		p.off += 8
	}
}

// Int moves an int (encoded as 8 bytes so 32- and 64-bit builds agree).
func (p *PUP) Int(v *int) {
	u := uint64(int64(*v))
	p.raw8(&u)
	if p.mode == pupUnpacking && p.err == nil {
		*v = int(int64(u))
	}
}

// Int64 moves an int64.
func (p *PUP) Int64(v *int64) {
	u := uint64(*v)
	p.raw8(&u)
	if p.mode == pupUnpacking && p.err == nil {
		*v = int64(u)
	}
}

// Int32 moves an int32 (still 8 bytes on the wire, for uniformity).
func (p *PUP) Int32(v *int32) {
	u := uint64(int64(*v))
	p.raw8(&u)
	if p.mode == pupUnpacking && p.err == nil {
		w := int64(u)
		if w < math.MinInt32 || w > math.MaxInt32 {
			p.fail(fmt.Errorf("pup: value %d overflows int32 at offset %d", w, p.off-8))
			return
		}
		*v = int32(w)
	}
}

// Uint64 moves a uint64.
func (p *PUP) Uint64(v *uint64) { p.raw8(v) }

// Float64 moves a float64 bit-exactly.
func (p *PUP) Float64(v *float64) {
	u := math.Float64bits(*v)
	p.raw8(&u)
	if p.mode == pupUnpacking && p.err == nil {
		*v = math.Float64frombits(u)
	}
}

// Bool moves a bool (one byte).
func (p *PUP) Bool(v *bool) {
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size++
	case pupPacking:
		b := byte(0)
		if *v {
			b = 1
		}
		p.buf = append(p.buf, b)
	case pupUnpacking:
		if p.remaining() < 1 {
			p.fail(fmt.Errorf("pup: truncated buffer (need 1 byte at offset %d)", p.off))
			return
		}
		switch p.buf[p.off] {
		case 0:
			*v = false
		case 1:
			*v = true
		default:
			p.fail(fmt.Errorf("pup: invalid bool byte 0x%02x at offset %d", p.buf[p.off], p.off))
			return
		}
		p.off++
	}
}

// Duration moves a time.Duration.
func (p *PUP) Duration(v *time.Duration) {
	d := int64(*v)
	p.Int64(&d)
	if p.mode == pupUnpacking && p.err == nil {
		*v = time.Duration(d)
	}
}

// Len moves a slice length prefix and, when unpacking, validates it
// against the bytes actually remaining (at least elemSize bytes per
// element) so a corrupt prefix cannot trigger a huge allocation. PUP
// methods of slice types other than the ones below call it before
// allocating the slice and visiting each element.
func (p *PUP) Len(n *int, elemSize int) {
	p.Int(n)
	if p.mode == pupUnpacking && p.err == nil {
		if *n < 0 || (elemSize > 0 && *n > p.remaining()/elemSize) {
			p.fail(fmt.Errorf("pup: implausible length %d at offset %d (%d bytes remain)", *n, p.off-8, p.remaining()))
		}
	}
}

// Bytes moves a byte slice with a length prefix. Unpacking replaces the
// pointee with a fresh copy (nil stays nil only for length 0... a zero
// length always unpacks as nil).
func (p *PUP) Bytes(v *[]byte) {
	n := len(*v)
	p.Len(&n, 1)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += n
	case pupPacking:
		p.buf = append(p.buf, *v...)
	case pupUnpacking:
		if n == 0 {
			*v = nil
			return
		}
		*v = append([]byte(nil), p.buf[p.off:p.off+n]...)
		p.off += n
	}
}

// String moves a string with a length prefix.
func (p *PUP) String(v *string) {
	n := len(*v)
	p.Len(&n, 1)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += n
	case pupPacking:
		p.buf = append(p.buf, *v...)
	case pupUnpacking:
		*v = string(p.buf[p.off : p.off+n])
		p.off += n
	}
}

// Float64s moves a []float64 with a length prefix. Unpacking reuses the
// pointee's backing array when its length already matches (the common
// restore-into-constructed-element case), so geometry validation against
// the target program can simply compare lengths before calling this.
func (p *PUP) Float64s(v *[]float64) {
	n := len(*v)
	p.Len(&n, 8)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += 8 * n
	case pupPacking:
		for _, f := range *v {
			p.buf = binary.BigEndian.AppendUint64(p.buf, math.Float64bits(f))
		}
	case pupUnpacking:
		s := *v
		if len(s) != n {
			s = make([]float64, n)
		}
		for i := range s {
			s[i] = math.Float64frombits(binary.BigEndian.Uint64(p.buf[p.off:]))
			p.off += 8
		}
		*v = s
	}
}

// Int32s moves a []int32 with a length prefix (8 bytes per element, for
// uniformity with the scalar encoding).
func (p *PUP) Int32s(v *[]int32) {
	n := len(*v)
	p.Len(&n, 8)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += 8 * n
	case pupPacking:
		for _, x := range *v {
			p.buf = binary.BigEndian.AppendUint64(p.buf, uint64(int64(x)))
		}
	case pupUnpacking:
		s := *v
		if len(s) != n {
			s = make([]int32, n)
		}
		for i := range s {
			s[i] = int32(int64(binary.BigEndian.Uint64(p.buf[p.off:])))
			p.off += 8
		}
		*v = s
	}
}

// Ints moves a []int with a length prefix.
func (p *PUP) Ints(v *[]int) {
	n := len(*v)
	p.Len(&n, 8)
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		p.size += 8 * n
	case pupPacking:
		for _, x := range *v {
			p.buf = binary.BigEndian.AppendUint64(p.buf, uint64(int64(x)))
		}
	case pupUnpacking:
		s := *v
		if len(s) != n {
			s = make([]int, n)
		}
		for i := range s {
			s[i] = int(int64(binary.BigEndian.Uint64(p.buf[p.off:])))
			p.off += 8
		}
		*v = s
	}
}

// Payload moves a value of any type the wire codec carries — a built-in
// payload or a type registered with RegisterPUPPayload — in its tagged
// wire form, for open-typed fields such as a queued message's body.
func (p *PUP) Payload(v *any) {
	if p.err != nil {
		return
	}
	switch p.mode {
	case pupSizing:
		b, err := appendPayload(nil, *v)
		p.size += len(b)
		p.fail(err)
	case pupPacking:
		b, err := appendPayload(p.buf, *v)
		if err != nil {
			p.fail(err)
			return
		}
		p.buf = b
	case pupUnpacking:
		if p.remaining() < 1 {
			p.fail(fmt.Errorf("pup: truncated buffer (need a payload tag at offset %d)", p.off))
			return
		}
		x, rest, err := decodePayload(p.buf[p.off], p.buf[p.off+1:])
		if err != nil {
			p.fail(err)
			return
		}
		*v = x
		p.off = len(p.buf) - len(rest)
	}
}

// PUPSize runs a sizing pass and returns the exact encoded size.
func PUPSize(v PUPable) (int, error) {
	p := &PUP{mode: pupSizing}
	v.PUP(p)
	if p.err != nil {
		return 0, p.err
	}
	return p.size, nil
}

// PUPPack serializes v for a live migration: a sizing pass first, then a
// packing pass into an exactly-sized buffer. The sizing pass keeps
// allocation honest and its result is cross-checked against the bytes
// actually written, so an asymmetric PUP method is caught at pack time
// rather than as a corrupt unpack on the destination PE.
func PUPPack(v PUPable) ([]byte, error) { return pupPack(v, false) }

// PUPPackCheckpoint is PUPPack with the Checkpointing flag set.
func PUPPackCheckpoint(v PUPable) ([]byte, error) { return pupPack(v, true) }

func pupPack(v PUPable, checkpoint bool) ([]byte, error) {
	sz := &PUP{mode: pupSizing, checkpoint: checkpoint}
	v.PUP(sz)
	if sz.err != nil {
		return nil, sz.err
	}
	n := sz.size
	p := &PUP{mode: pupPacking, checkpoint: checkpoint, buf: make([]byte, 0, n)}
	v.PUP(p)
	if p.err != nil {
		return nil, p.err
	}
	if len(p.buf) != n {
		return nil, fmt.Errorf("pup: %T sized %d bytes but packed %d — PUP method is asymmetric", v, n, len(p.buf))
	}
	return p.buf, nil
}

// PUPUnpack restores v from data produced by PUPPack (a live migration).
// Every byte must be consumed; trailing garbage means the method or the
// data is wrong.
func PUPUnpack(v PUPable, data []byte) error { return pupUnpack(v, data, false) }

// PUPUnpackCheckpoint is PUPUnpack with the Checkpointing flag set, for
// restoring an element into a freshly started program.
func PUPUnpackCheckpoint(v PUPable, data []byte) error { return pupUnpack(v, data, true) }

func pupUnpack(v PUPable, data []byte, checkpoint bool) error {
	p := &PUP{mode: pupUnpacking, checkpoint: checkpoint, buf: data}
	v.PUP(p)
	if p.err != nil {
		return p.err
	}
	if p.off != len(data) {
		return fmt.Errorf("pup: %T left %d trailing bytes of %d", v, len(data)-p.off, len(data))
	}
	return nil
}
