package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestWireCodecPayloadKinds round-trips one message per registered binary
// fast path and checks the payload survives with its concrete type.
func TestWireCodecPayloadKinds(t *testing.T) {
	cases := []struct {
		name string
		data any
	}{
		{"nil", nil},
		{"int", -42},
		{"int64", int64(1) << 40},
		{"float64", 3.14159},
		{"float64-special", math.Inf(-1)},
		{"f64slice", []float64{1, -2.5, math.MaxFloat64}},
		{"f64slice-empty", []float64{}},
		{"string", "ghost row"},
		{"bytes", []byte{0, 1, 2, 255}},
		{"bool", true},
		{"reduce", ReducePartial{Array: 3, Seq: 17, Op: OpMax, Value: 2.25, Contribs: 9}},
		{"reduce-nested-slice", ReducePartial{Array: 1, Seq: 2, Op: OpSum, Value: []float64{9, 8}, Contribs: 4}},
		{"qd-probe", qdMsg{Probe: true, Wave: 7}},
		{"qd-reply", qdMsg{Wave: 7, Sent: 123, Processed: 120}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := &Message{
				Kind: KindApp, To: ElemRef{Array: 2, Index: 1 << 33}, Entry: -1,
				Prio: -5, Bytes: 4096, SrcPE: 11, DstPE: 13, Data: tc.data,
				ID: uint64(1)<<48 | 99, Parent: uint64(1)<<48 | 42,
			}
			b, err := EncodeMessage(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := DecodeMessage(b)
			if err != nil {
				t.Fatal(err)
			}
			if out.Kind != in.Kind || out.To != in.To || out.Entry != in.Entry ||
				out.Prio != in.Prio || out.Bytes != in.Bytes || out.SrcPE != in.SrcPE || out.DstPE != in.DstPE {
				t.Errorf("header mismatch: %+v", out)
			}
			if out.ID != in.ID || out.Parent != in.Parent {
				t.Errorf("trace context lost: ID %#x Parent %#x", out.ID, out.Parent)
			}
			if !reflect.DeepEqual(out.Data, tc.data) {
				t.Errorf("payload: got %#v (%T), want %#v (%T)", out.Data, out.Data, tc.data, tc.data)
			}
		})
	}
}

// TestWireCodecBundleRecursion checks that bundle payloads encode their
// sub-messages recursively, headers included.
func TestWireCodecBundleRecursion(t *testing.T) {
	in := MakeBundle([]*Message{
		{Kind: KindApp, To: ElemRef{0, 1}, Entry: 2, SrcPE: 0, DstPE: 1, Data: []float64{1, 2, 3}, Bytes: 24},
		{Kind: KindApp, To: ElemRef{0, 2}, Entry: 3, SrcPE: 0, DstPE: 1, Data: "hello", Bytes: 5},
		{Kind: KindApp, To: ElemRef{0, 3}, Entry: 4, SrcPE: 0, DstPE: 1, Data: nil, Bytes: 0},
	})
	b, err := EncodeMessage(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	subs := BundleMessages(out)
	if len(subs) != 3 {
		t.Fatalf("decoded %d sub-messages", len(subs))
	}
	if !reflect.DeepEqual(subs[0].Data, []float64{1, 2, 3}) || subs[1].Data != "hello" || subs[2].Data != nil {
		t.Errorf("bundle payloads corrupted: %v", subs)
	}
	if subs[1].To != (ElemRef{0, 2}) || subs[1].Entry != 3 {
		t.Errorf("sub-message header lost: %+v", subs[1])
	}
}

// TestWireCodecDecodeDoesNotAlias: decoded reference payloads must be
// fresh copies, because the transport recycles the input buffer.
func TestWireCodecDecodeDoesNotAlias(t *testing.T) {
	in := &Message{Kind: KindApp, Data: []byte("aliased?"), Bytes: 8}
	b, err := EncodeMessage(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xEE
	}
	if got := out.Data.([]byte); !bytes.Equal(got, []byte("aliased?")) {
		t.Errorf("decoded payload aliases the wire buffer: %q", got)
	}
}

// TestWireCodecAppendMessage: AppendMessage must extend dst in place
// (given capacity) and produce the same bytes as EncodeMessage.
func TestWireCodecAppendMessage(t *testing.T) {
	m := &Message{Kind: KindReduce, Data: ReducePartial{Array: 1, Seq: 5, Op: OpMin, Value: int64(8), Contribs: 2}}
	plain, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	appended, err := AppendMessage(buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if &appended[0] != &buf[:1][0] {
		t.Error("AppendMessage reallocated despite sufficient capacity")
	}
	if !bytes.Equal(appended, plain) {
		t.Error("AppendMessage and EncodeMessage disagree")
	}
}

// unregisteredPayload has no wire codec.
type unregisteredPayload struct{ N int }

// TestWireCodecUnregisteredPayload: a payload type with no codec is an
// encode error that names the type and the registration function.
func TestWireCodecUnregisteredPayload(t *testing.T) {
	_, err := EncodeMessage(&Message{Kind: KindApp, Data: unregisteredPayload{N: 3}})
	if err == nil {
		t.Fatal("unregistered payload type encoded")
	}
	for _, want := range []string{"core.unregisteredPayload", "RegisterPUPPayload"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// appPayload exercises RegisterPUPPayload. Registration lives in an init
// so repeated test runs in one process (-count=N) don't trip the
// duplicate-tag panic.
type appPayload struct {
	N    int
	Name string
	Vals []float64
	Body any
}

func (a *appPayload) PUP(p *PUP) {
	p.Int(&a.N)
	p.String(&a.Name)
	p.Float64s(&a.Vals)
	p.Payload(&a.Body)
}

func init() { RegisterPUPPayload[appPayload](200) }

// TestRegisterPUPPayload: a registered PUP payload is used for both
// directions, nests other payloads, reports a corrupt body as ErrBadWire,
// and reserved or duplicate registrations panic.
func TestRegisterPUPPayload(t *testing.T) {
	want := appPayload{N: 77, Name: "ghost", Vals: []float64{1, 2}, Body: []any{int64(5), "x", nil}}
	b, err := EncodeMessage(&Message{Kind: KindApp, Data: want})
	if err != nil {
		t.Fatal(err)
	}
	if b[msgHeaderLen-1] != 200 {
		t.Errorf("registered codec not used: tag %d", b[msgHeaderLen-1])
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Data, want) {
		t.Errorf("custom payload: %#v", out.Data)
	}
	if _, err := DecodeMessage(b[:len(b)-1]); !errors.Is(err, ErrBadWire) {
		t.Errorf("truncated body: err %v, want ErrBadWire", err)
	}
	for _, tag := range []byte{0, 10, 63, 255, 200} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("tag %d accepted", tag)
				}
			}()
			RegisterPUPPayload[unregisteredPayloadPUP](tag)
		}()
	}
}

// unregisteredPayloadPUP is only ever offered to a registration that
// must panic.
type unregisteredPayloadPUP struct{ X int }

func (u *unregisteredPayloadPUP) PUP(p *PUP) { p.Int(&u.X) }

// FuzzWireCodec round-trips structured random messages through the binary
// codec and asserts byte-for-byte stability: decode(encode(m)) must
// re-encode to the identical byte string. The same value boxed in a
// registered PUP payload must round-trip too.
func FuzzWireCodec(f *testing.F) {
	f.Add(uint8(0), int64(0), int64(0), false, "seed", []byte{1, 2, 3})
	f.Add(uint8(3), int64(-9), int64(1<<40), true, "", []byte{})
	f.Add(uint8(200), int64(7), int64(-1), true, "payload", []byte{0xFF})
	f.Fuzz(func(t *testing.T, kind uint8, a, b int64, flag bool, s string, raw []byte) {
		// Build a payload whose shape depends on the fuzzed inputs so every
		// tag gets coverage, including nesting.
		var data any
		switch kind % 10 {
		case 0:
			data = nil
		case 1:
			data = int(a)
		case 2:
			data = b
		case 3:
			data = math.Float64frombits(uint64(a))
		case 4:
			data = []float64{float64(a), float64(b)}
		case 5:
			data = s
		case 6:
			data = append([]byte(nil), raw...)
		case 7:
			data = flag
		case 8:
			data = ReducePartial{Array: ArrayID(a), Seq: b, Op: ReduceOp(kind % 3), Value: s, Contribs: int(a % 1000)}
		case 9:
			data = []*Message{
				{Kind: KindApp, To: ElemRef{Array: 1, Index: int(a % 4096)}, Data: b, Bytes: int(b % 4096)},
				{Kind: KindApp, To: ElemRef{Array: 2, Index: int(b % 4096)}, Data: s},
			}
		}
		in := &Message{
			Kind: Kind(kind % 7), To: ElemRef{Array: ArrayID(a), Index: int(b)},
			Entry: EntryID(b), Prio: int32(a), Bytes: int(a % (1 << 30)), SrcPE: int32(b), DstPE: int32(a),
			ID: uint64(a), Parent: uint64(b),
			Data: data,
		}
		enc1, err := EncodeMessage(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := DecodeMessage(enc1)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		enc2, err := EncodeMessage(out)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("codec not byte-stable:\n first %x\nsecond %x", enc1, enc2)
		}
		// PUP-payload equivalence: the same payload nested in a registered
		// wrapper must carry identical payload bytes and stay byte-stable.
		wb, err := EncodeMessage(&Message{Kind: in.Kind, Data: fuzzWrapper{V: data}})
		if err != nil {
			t.Fatalf("wrapped encode: %v", err)
		}
		if !bytes.Equal(wb[msgHeaderLen:], enc1[msgHeaderLen-1:]) {
			t.Fatalf("nested payload differs:\nwrapped %x\n  plain %x", wb[msgHeaderLen:], enc1[msgHeaderLen-1:])
		}
		wout, err := DecodeMessage(wb)
		if err != nil {
			t.Fatalf("wrapped decode: %v", err)
		}
		wb2, err := EncodeMessage(wout)
		if err != nil || !bytes.Equal(wb, wb2) {
			t.Fatalf("wrapped payload not byte-stable (err %v)", err)
		}
	})
}

// FuzzTraceWire targets the extended trace-context header: the causal ID and
// Parent fields must survive the wire byte-for-byte (including node-seeded
// high bits), sit at their fixed offsets, and version-1 frames must be
// rejected rather than misparsed as trace bytes.
func FuzzTraceWire(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1)<<48|1, uint64(1)<<48) // node-seeded IDs (node 1)
	f.Add(uint64(0xFFFF)<<48|42, uint64(7)<<48|9)
	f.Add(^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, id, parent uint64) {
		in := &Message{
			Kind: KindApp, To: ElemRef{Array: 1, Index: 2}, SrcPE: 3, DstPE: 4,
			ID: id, Parent: parent, Data: "x",
		}
		enc, err := EncodeMessage(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(enc[40:]); got != id {
			t.Fatalf("ID not at offset 40: got %#x, want %#x", got, id)
		}
		if got := binary.BigEndian.Uint64(enc[48:]); got != parent {
			t.Fatalf("Parent not at offset 48: got %#x, want %#x", got, parent)
		}
		out, err := DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		if out.ID != id || out.Parent != parent {
			t.Fatalf("trace context mismatch: ID %#x want %#x, Parent %#x want %#x",
				out.ID, id, out.Parent, parent)
		}
		enc2, err := EncodeMessage(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("trace header not byte-stable")
		}
		// A version-1 frame (the pre-trace 41-byte header) must be rejected,
		// and so must a version-2 frame, whose application payloads used
		// the varint and gob layouts under today's tags.
		old := append([]byte(nil), enc...)
		old[2] = 1
		if _, err := DecodeMessage(old); err == nil {
			t.Fatal("version-1 frame accepted")
		}
		old[2] = 2
		if _, err := DecodeMessage(old); err == nil {
			t.Fatal("version-2 frame accepted")
		}
	})
}

// fuzzWrapper nests any wire payload inside a registered PUP payload.
type fuzzWrapper struct{ V any }

func (w *fuzzWrapper) PUP(p *PUP) { p.Payload(&w.V) }

func init() { RegisterPUPPayload[fuzzWrapper](201) }

// FuzzDecodeMessage feeds arbitrary bytes to the decoder: it must error or
// decode, never panic, and anything it decodes must re-encode stably.
func FuzzDecodeMessage(f *testing.F) {
	seed := &Message{Kind: KindApp, Data: []float64{1, 2}}
	if b, err := EncodeMessage(seed); err == nil {
		f.Add(b)
	}
	f.Add([]byte("garbage"))
	seed = &Message{Kind: KindApp, Data: appPayload{N: 1, Body: []any{"a", nil, int64(2)}}}
	if b, err := EncodeMessage(seed); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if m2.Kind != m.Kind || m2.To != m.To || m2.Prio != m.Prio {
			t.Fatalf("unstable header: %+v vs %+v", m, m2)
		}
	})
}
