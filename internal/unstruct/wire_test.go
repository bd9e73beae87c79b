package unstruct

import (
	"bytes"
	"reflect"
	"testing"

	"gridmdo/internal/core"
)

// TestWirePayloadRoundTrip sends every unstruct message through the wire
// codec: it must decode equal and re-encode to the same bytes.
func TestWirePayloadRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		data any
	}{
		{"halo", haloMsg{From: 5, Step: 2, Vals: []float64{0.5, 1.5}}},
		{"halo-empty", haloMsg{From: -1, Step: 0}},
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
