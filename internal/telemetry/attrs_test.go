package telemetry

import (
	"encoding/json"
	"testing"
	"time"
)

func TestAttrsInlineAndOverflow(t *testing.T) {
	a := A("state", "running", "node", "n1")
	if a.Len() != 2 || a.Get("state") != "running" || a.Get("node") != "n1" {
		t.Fatalf("inline attrs: %+v", a)
	}
	if _, ok := a.Lookup("missing"); ok {
		t.Fatal("phantom key")
	}
	if a.Get("missing") != "" {
		t.Fatal("missing key not empty")
	}

	// Odd trailing key is ignored.
	if got := A("k1", "v1", "dangling"); got.Len() != 1 || got.Get("k1") != "v1" {
		t.Fatalf("odd kv list: %+v", got)
	}

	// More than attrsInline pairs spill into the map and stay readable.
	kv := []string{"a", "1", "b", "2", "c", "3", "d", "4", "e", "5", "f", "6", "g", "7"}
	big := A(kv...)
	if big.Len() != 7 || big.Get("g") != "7" || big.Get("a") != "1" {
		t.Fatalf("overflow attrs: %+v", big)
	}

	// Set replaces in place, appends inline, then spills past capacity.
	var s Attrs
	for i := 0; i < attrsInline; i++ {
		s.Set(string(rune('a'+i)), "x")
	}
	s.Set("a", "y")
	if s.Len() != attrsInline || s.Get("a") != "y" {
		t.Fatalf("inline Set: %+v", s)
	}
	s.Set("spill", "z")
	if s.Len() != attrsInline+1 || s.Get("spill") != "z" || s.Get("a") != "y" {
		t.Fatalf("spilled Set: %+v", s)
	}

	// Map round-trips every pair.
	m := big.Map()
	if len(m) != 7 || m["d"] != "4" {
		t.Fatalf("Map: %+v", m)
	}
	back := AttrsFromMap(m)
	if back.Len() != 7 || back.Get("f") != "6" {
		t.Fatalf("AttrsFromMap: %+v", back)
	}
	if AttrsFromMap(nil).Len() != 0 || !AttrsFromMap(nil).IsZero() {
		t.Fatal("nil map not empty")
	}
}

func TestAttrsJSONWireFormat(t *testing.T) {
	// Events keep the map-object wire format: attrs is a JSON object with
	// the pairs, omitted entirely when empty.
	ev := Event{Seq: 7, At: time.Second, Type: EventVMState, Entity: "vm/v1",
		Attrs: A("state", "running", "node", "n1")}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":7,"at":1000000000,"type":"vm.state","entity":"vm/v1","attrs":{"node":"n1","state":"running"}}`
	if string(b) != want {
		t.Fatalf("wire form:\n got %s\nwant %s", b, want)
	}
	var dec Event
	if err := json.Unmarshal(b, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Attrs.Get("state") != "running" || dec.Attrs.Get("node") != "n1" || dec.Attrs.Len() != 2 {
		t.Fatalf("round-trip: %+v", dec.Attrs)
	}

	// Empty attrs are omitted, as the former nil map was.
	b, err = json.Marshal(Event{Seq: 1, Type: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"seq":1,"at":0,"type":"x"}` {
		t.Fatalf("empty attrs leaked onto the wire: %s", b)
	}
}

func TestJournalPublishBatch(t *testing.T) {
	j := NewJournal(8)
	j.Publish(Event{Type: "warmup"})

	sub := j.Subscribe(0, 64)
	defer sub.Close()
	<-sub.Events() // drain the warmup replay

	batch := []Event{
		{At: time.Second, Type: "a"},
		{At: 2 * time.Second, Type: "b"},
		{At: 3 * time.Second, Type: "c"},
	}
	j.PublishBatch(batch)

	// Seqs are assigned contiguously in slice order and written back.
	for i, ev := range batch {
		if ev.Seq != uint64(2+i) {
			t.Fatalf("batch[%d].Seq = %d", i, ev.Seq)
		}
	}
	// Subscribers receive every event in order.
	for i := 0; i < 3; i++ {
		ev := <-sub.Events()
		if ev.Seq != uint64(2+i) {
			t.Fatalf("sub event %d: %+v", i, ev)
		}
	}
	// The ring retains the batch like individual publishes.
	if got := j.Replay(2, 0); len(got) != 3 || got[1].Type != "b" {
		t.Fatalf("replay: %+v", got)
	}
	if j.LastSeq() != 4 {
		t.Fatalf("LastSeq: %d", j.LastSeq())
	}

	j.PublishBatch(nil) // no-op
	if j.LastSeq() != 4 {
		t.Fatal("empty batch advanced seq")
	}
}

func TestHubEmitBatchForgetsTerminalVMs(t *testing.T) {
	h := NewHub(Options{})
	h.Record(VMEntity("dead"), "cpu.used", time.Second, 1)
	h.Record(VMEntity("alive"), "cpu.used", time.Second, 1)
	evs := []Event{
		{At: 2 * time.Second, Type: EventVMState, Entity: VMEntity("dead"), Attrs: A("state", "vanished")},
		{At: 2 * time.Second, Type: EventVMState, Entity: VMEntity("alive"), Attrs: A("state", "running")},
	}
	h.EmitBatch(evs)
	if evs[0].Seq == 0 || evs[1].Seq != evs[0].Seq+1 {
		t.Fatalf("batch seqs: %d %d", evs[0].Seq, evs[1].Seq)
	}
	if h.Store().Len(VMEntity("dead"), "cpu.used") != 0 {
		t.Fatal("terminal vm.state in batch did not forget the entity")
	}
	if h.Store().Len(VMEntity("alive"), "cpu.used") == 0 {
		t.Fatal("non-terminal vm.state in batch dropped the series")
	}
}

func TestStoreNewest(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 4})
	if _, ok := s.Newest("node/n1", "util"); ok {
		t.Fatal("phantom newest")
	}
	for i := 1; i <= 6; i++ { // wraps the 4-sample ring
		s.Append("node/n1", "util", time.Duration(i)*time.Second, float64(i))
	}
	sm, ok := s.Newest("node/n1", "util")
	if !ok || sm.At != 6*time.Second || sm.Value != 6 {
		t.Fatalf("newest: %+v %v", sm, ok)
	}
}
