package leanmd

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"gridmdo/internal/core"
)

// TestWirePayloadRoundTrip sends every LeanMD message through the wire
// codec: it must decode equal and re-encode to the same bytes.
func TestWirePayloadRoundTrip(t *testing.T) {
	pos := []Vec3{{1, 2, 3}, {-4, 5.5, math.SmallestNonzeroFloat64}}
	cases := []struct {
		name string
		data any
	}{
		{"coord", coordMsg{From: 12, Step: 3, Pos: pos}},
		{"coord-empty", coordMsg{From: 0, Step: 1, Pos: []Vec3{}}},
		{"force", forceMsg{Step: 9, F: pos, U: -0.125}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 3}, Data: tc.data}
			enc, err := core.EncodeMessage(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := core.DecodeMessage(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Data, tc.data) {
				t.Errorf("decoded %#v, want %#v", out.Data, tc.data)
			}
			if enc2, err := core.EncodeMessage(out); err != nil || !bytes.Equal(enc, enc2) {
				t.Errorf("re-encode not byte-stable (err %v)", err)
			}
		})
	}
}

// BenchmarkLeanMDMsgCodec measures one encode+decode of a 12-atom cell's
// coordinate and force messages, the cycle the TCP send path runs.
func BenchmarkLeanMDMsgCodec(b *testing.B) {
	vs := make([]Vec3, 12)
	for i := range vs {
		vs[i] = Vec3{float64(i), 0.5, -1}
	}
	for _, c := range []struct {
		name string
		data any
	}{
		{"coord-12", coordMsg{From: 7, Step: 3, Pos: vs}},
		{"force-12", forceMsg{Step: 3, F: vs, U: 0.25}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 2}, Data: c.data}
			buf := make([]byte, 0, 8192)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = core.AppendMessage(buf[:0], m); err != nil {
					b.Fatal(err)
				}
				if _, err := core.DecodeMessage(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "wire-bytes")
		})
	}
}
