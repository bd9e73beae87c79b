package ampi

import (
	"bytes"
	"reflect"
	"testing"

	"gridmdo/internal/core"
)

// TestWirePayloadRoundTrip sends rank packets through the wire codec
// with the body of every collective's traffic: it must decode equal and
// re-encode to the same bytes.
func TestWirePayloadRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		data any
	}{
		{"barrier-nil", pkt{Src: 1, Tag: tagBarrierUp}},
		{"bcast-string", pkt{Src: 0, Tag: tagBcast, Data: "hello", Bytes: 5}},
		{"allgather-list", pkt{Src: 0, Tag: tagBcast, Data: []any{1, 2.5, "x", nil, []float64{3}}}},
		{"gather-nested-list", pkt{Src: 2, Tag: tagGather, Data: []any{[]any{int64(1)}, []any{}}}},
		{"scan-float", pkt{Src: 3, Tag: tagScan, Data: 6.25}},
		{"reduce-int", pkt{Src: 1, Tag: tagReduce, Data: 42}},
		{"p2p-f64s", pkt{Src: 1, Tag: 7, Data: []float64{1, 2}, Bytes: 16}},
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
