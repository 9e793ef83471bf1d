package tms

import (
	"reflect"
	"testing"
)

func TestTaskStateString(t *testing.T) {
	if TaskQueued.String() != "queued" || TaskDone.String() != "done" {
		t.Error("state names wrong")
	}
	if TaskState(9).String() == "" {
		t.Error("unknown state should render")
	}
}

func TestAddValidation(t *testing.T) {
	b := NewBoard()
	if err := b.Add(Task{}); err == nil {
		t.Error("empty ID should error")
	}
	if err := b.Add(Task{ID: "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Task{ID: "t1"}); err == nil {
		t.Error("duplicate should error")
	}
}

func TestLifecycle(t *testing.T) {
	b := NewBoard()
	b.MustAdd(Task{ID: "t1", Units: 2, RequiredRole: "truck"})

	got, ok := b.NextFor("truck")
	if !ok || got.ID != "t1" {
		t.Fatalf("NextFor = %+v ok=%v", got, ok)
	}
	if _, ok := b.NextFor("digger"); ok {
		t.Error("role mismatch should not match")
	}
	if err := b.Assign("t1", "truckA"); err != nil {
		t.Fatal(err)
	}
	if tk := b.tasks["t1"]; tk.state != TaskAssigned || tk.assignee != "truckA" {
		t.Errorf("task = %+v", *tk)
	}
	if err := b.Assign("t1", "truckB"); err == nil {
		t.Error("double assign should error")
	}
	units, err := b.Complete("t1")
	if err != nil || units != 2 {
		t.Errorf("Complete = %v, %v", units, err)
	}
	if b.DoneUnits() != 2 {
		t.Error("units not credited")
	}
	if _, err := b.Complete("t1"); err == nil {
		t.Error("double complete should error")
	}
}

func TestNextForFIFOAndAnyRole(t *testing.T) {
	b := NewBoard()
	b.MustAdd(Task{ID: "a", RequiredRole: ""})
	b.MustAdd(Task{ID: "b", RequiredRole: "truck"})
	got, _ := b.NextFor("truck")
	if got.ID != "a" {
		t.Errorf("FIFO: got %q, want a (unrestricted first)", got.ID)
	}
	_ = b.Assign("a", "x")
	got, _ = b.NextFor("truck")
	if got.ID != "b" {
		t.Errorf("got %q, want b", got.ID)
	}
}

func TestRequeueAndReassignFrom(t *testing.T) {
	b := NewBoard()
	b.MustAdd(Task{ID: "t1"})
	b.MustAdd(Task{ID: "t2"})
	b.MustAdd(Task{ID: "t3"})
	_ = b.Assign("t1", "v1")
	_ = b.Assign("t2", "v1")
	_ = b.Assign("t3", "v2")

	if got := b.AssignedTo("v1"); !reflect.DeepEqual(got, []string{"t1", "t2"}) {
		t.Errorf("AssignedTo = %v", got)
	}
	requeued := b.ReassignFrom("v1")
	if !reflect.DeepEqual(requeued, []string{"t1", "t2"}) {
		t.Errorf("ReassignFrom = %v", requeued)
	}
	if tk := b.tasks["t1"]; tk.state != TaskQueued || tk.assignee != "" {
		t.Errorf("t1 = %+v", *tk)
	}
	if tk := b.tasks["t3"]; tk.state != TaskAssigned {
		t.Error("t3 should stay assigned")
	}
}

func TestAbortAllAndStats(t *testing.T) {
	b := NewBoard()
	b.MustAdd(Task{ID: "t1", Units: 1})
	b.MustAdd(Task{ID: "t2", Units: 1})
	b.MustAdd(Task{ID: "t3", Units: 1})
	_ = b.Assign("t1", "v1")
	if _, err := b.Complete("t1"); err != nil {
		t.Fatal(err)
	}
	_ = b.Assign("t2", "v1")
	if n := b.AbortAll(); n != 2 {
		t.Errorf("aborted = %d, want 2 (t2 assigned + t3 queued)", n)
	}
	s := b.Stats()
	if s.Done != 1 || s.Aborted != 2 || s.Queued != 0 || s.Assigned != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.DoneUnits != 1 {
		t.Errorf("done units = %v", s.DoneUnits)
	}
}

// Queued and assigned tasks are the board's remaining work; Stats
// tracks them through the lifecycle.
func TestRemaining(t *testing.T) {
	remaining := func(b *Board) bool { s := b.Stats(); return s.Queued+s.Assigned > 0 }
	b := NewBoard()
	if remaining(b) {
		t.Error("empty board has nothing remaining")
	}
	b.MustAdd(Task{ID: "t1"})
	if !remaining(b) {
		t.Error("queued task should count as remaining")
	}
	_ = b.Assign("t1", "v")
	if !remaining(b) {
		t.Error("assigned task should count as remaining")
	}
	if _, err := b.Complete("t1"); err != nil {
		t.Fatal(err)
	}
	if remaining(b) {
		t.Error("done board has nothing remaining")
	}
}

func TestGetUnknown(t *testing.T) {
	b := NewBoard()
	if err := b.Assign("zzz", "v"); err == nil {
		t.Error("unknown Assign should error")
	}
	if _, err := b.Complete("zzz"); err == nil {
		t.Error("unknown Complete should error")
	}
}
