package gridmdo_bench

import (
	"testing"

	"gridmdo/internal/core"

	// Every package that registers wire payloads, linked into one binary.
	_ "gridmdo/internal/ampi"
	_ "gridmdo/internal/leanmd"
	_ "gridmdo/internal/stencil"
	_ "gridmdo/internal/taskfarm"
	_ "gridmdo/internal/unstruct"
)

// TestPayloadTagsLinkTogether guards the payload tag blocks. Each package
// registers its messages with core.RegisterPUPPayload at init, which
// panics on a tag or type registered twice, so two packages claiming the
// same tag abort this test binary before any test runs. The body checks
// that a payload registered next to all of them still round-trips.
func TestPayloadTagsLinkTogether(t *testing.T) {
	want := benchPUPPayload{A: -3, B: "linked"}
	enc, err := core.EncodeMessage(&core.Message{Kind: core.KindApp, Data: want})
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data != want {
		t.Errorf("decoded %#v, want %#v", out.Data, want)
	}
}
