package local

import (
	"testing"

	"localmds/internal/gen"
)

// lastWordsProcess halts in round 1 while sending a message; its neighbor
// stays up one more round and must still receive it (halting peers deliver
// their final outbox).
type lastWordsProcess struct {
	info      NodeInfo
	haltEarly bool
	heard     int
}

func (p *lastWordsProcess) Init(info NodeInfo) { p.info = info }

func (p *lastWordsProcess) Round(round int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if m != nil {
			p.heard++
		}
	}
	if p.haltEarly {
		return Broadcast(p.info.Ports, "bye"), true
	}
	return nil, round >= 2
}

func (p *lastWordsProcess) Output() any { return p.heard }

func TestFinalMessagesDelivered(t *testing.T) {
	g := gen.Path(2)
	nw, err := NewNetwork(g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(func(v int) Process {
		return &lastWordsProcess{haltEarly: v == 0}
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1].(int) != 1 {
		t.Errorf("vertex 1 heard %d messages, want the halting peer's last words", res.Outputs[1].(int))
	}
}

func TestMessagesToHaltedDropped(t *testing.T) {
	// Vertex 0 halts in round 1; vertex 1 sends in round 2; the message
	// must be dropped, not delivered or counted.
	g := gen.Path(2)
	nw, err := NewNetwork(g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(func(v int) Process {
		if v == 0 {
			return &silentHaltProcess{}
		}
		return &lateSenderProcess{}
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the round-2 send happens; it targets a halted vertex.
	if res.Stats.Messages != 0 {
		t.Errorf("Messages = %d, want 0 (recipient halted)", res.Stats.Messages)
	}
	// A run in which every vertex halts silently costs its one deciding
	// round and no messages.
	res, err = nw.Run(func(int) Process { return silentHaltProcess{} }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 || res.Stats.Messages != 0 {
		t.Errorf("all-silent run: %d rounds, %d messages, want 1, 0", res.Stats.Rounds, res.Stats.Messages)
	}
}

type silentHaltProcess struct{}

func (silentHaltProcess) Init(NodeInfo) {}
func (silentHaltProcess) Round(int, []Message) ([]Message, bool) {
	return nil, true
}
func (silentHaltProcess) Output() any { return nil }

type lateSenderProcess struct{ info NodeInfo }

func (p *lateSenderProcess) Init(info NodeInfo) { p.info = info }
func (p *lateSenderProcess) Round(round int, _ []Message) ([]Message, bool) {
	if round == 2 {
		return Broadcast(p.info.Ports, "late"), true
	}
	return nil, false
}
func (p *lateSenderProcess) Output() any { return nil }
