package stencil

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"gridmdo/internal/core"
)

// TestWirePayloadRoundTrip sends every stencil message through the wire
// codec: it must decode equal and re-encode to the same bytes.
func TestWirePayloadRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		data any
	}{
		{"ghost", ghostMsg{Dir: dirLeft, Step: 7, Vals: []float64{1, -2.5, math.Inf(1)}}},
		{"ghost-empty", ghostMsg{Dir: dirDown, Step: 0}},
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

// BenchmarkGhostMsgCodec measures one encode+decode of the paper's
// 256-cell ghost vector, the cycle the TCP send path runs.
func BenchmarkGhostMsgCodec(b *testing.B) {
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	m := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 2}, Data: ghostMsg{Dir: dirLeft, Step: 3, Vals: vals}}
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
}
