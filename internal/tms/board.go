// Package tms provides the traffic-management-system substrate used
// by the prescriptive and orchestrated classes: a task board with
// deterministic assignment, completion accounting, and requeueing
// when a constituent is lost to an MRC.
//
// The directing logic itself (who to stop, when to escalate to a
// global MRC) lives in the policy layers; the board only keeps the
// work bookkeeping consistent.
package tms

import (
	"fmt"
	"sort"
)

// TaskState is the lifecycle state of a task.
type TaskState int

// Task states.
const (
	TaskQueued TaskState = iota + 1
	TaskAssigned
	TaskDone
	TaskAborted
)

var taskStateNames = map[TaskState]string{
	TaskQueued:   "queued",
	TaskAssigned: "assigned",
	TaskDone:     "done",
	TaskAborted:  "aborted",
}

// String implements fmt.Stringer.
func (s TaskState) String() string {
	if n, ok := taskStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("task_state(%d)", int(s))
}

// Task is one unit of work in the common strategic goal.
type Task struct {
	ID string
	// From and To are zone IDs (scenario-interpreted).
	From, To string
	// Units is the productivity credited on completion.
	Units float64
	// RequiredRole restricts which constituents may take the task
	// ("" = anyone).
	RequiredRole string

	state    TaskState
	assignee string
}

// Board tracks tasks for one collaborative system.
type Board struct {
	tasks map[string]*Task
	order []string

	doneUnits float64
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{tasks: make(map[string]*Task)}
}

// Add queues a task. Duplicate or empty IDs are errors.
func (b *Board) Add(t Task) error {
	if t.ID == "" {
		return fmt.Errorf("tms: task with empty ID")
	}
	if _, dup := b.tasks[t.ID]; dup {
		return fmt.Errorf("tms: duplicate task %q", t.ID)
	}
	t.state = TaskQueued
	t.assignee = ""
	b.tasks[t.ID] = &t
	b.order = append(b.order, t.ID)
	return nil
}

// MustAdd is Add that panics on error.
func (b *Board) MustAdd(t Task) {
	if err := b.Add(t); err != nil {
		panic(err)
	}
}

// NextFor returns the first queued task a constituent with the given
// role may take (FIFO in Add order), without assigning it.
func (b *Board) NextFor(role string) (Task, bool) {
	for _, id := range b.order {
		t := b.tasks[id]
		if t.state != TaskQueued {
			continue
		}
		if t.RequiredRole == "" || t.RequiredRole == role {
			return *t, true
		}
	}
	return Task{}, false
}

// Assign marks the task as taken by the constituent.
func (b *Board) Assign(taskID, constituent string) error {
	t, ok := b.tasks[taskID]
	if !ok {
		return fmt.Errorf("tms: unknown task %q", taskID)
	}
	if t.state != TaskQueued {
		return fmt.Errorf("tms: task %q not queued (state %v)", taskID, t.state)
	}
	t.state = TaskAssigned
	t.assignee = constituent
	return nil
}

// Complete marks an assigned task done and credits its units.
func (b *Board) Complete(taskID string) (float64, error) {
	t, ok := b.tasks[taskID]
	if !ok {
		return 0, fmt.Errorf("tms: unknown task %q", taskID)
	}
	if t.state != TaskAssigned {
		return 0, fmt.Errorf("tms: task %q not assigned (state %v)", taskID, t.state)
	}
	t.state = TaskDone
	b.doneUnits += t.Units
	return t.Units, nil
}

// AbortAll aborts every queued and assigned task (global MRC).
// Returns the number aborted.
func (b *Board) AbortAll() int {
	n := 0
	for _, id := range b.order {
		t := b.tasks[id]
		if t.state == TaskQueued || t.state == TaskAssigned {
			t.state = TaskAborted
			t.assignee = ""
			n++
		}
	}
	return n
}

// ReassignFrom requeues all tasks assigned to the given constituent
// and returns their IDs (sorted).
func (b *Board) ReassignFrom(constituent string) []string {
	var out []string
	for _, id := range b.order {
		t := b.tasks[id]
		if t.state == TaskAssigned && t.assignee == constituent {
			t.state = TaskQueued
			t.assignee = ""
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// AssignedTo returns the IDs of tasks currently assigned to the
// constituent, in Add order.
func (b *Board) AssignedTo(constituent string) []string {
	var out []string
	for _, id := range b.order {
		t := b.tasks[id]
		if t.state == TaskAssigned && t.assignee == constituent {
			out = append(out, id)
		}
	}
	return out
}

// Stats summarises board progress.
type Stats struct {
	Queued, Assigned, Done, Aborted int
	DoneUnits                       float64
}

// Stats returns current counts.
func (b *Board) Stats() Stats {
	var s Stats
	for _, id := range b.order {
		switch b.tasks[id].state {
		case TaskQueued:
			s.Queued++
		case TaskAssigned:
			s.Assigned++
		case TaskDone:
			s.Done++
		case TaskAborted:
			s.Aborted++
		}
	}
	s.DoneUnits = b.doneUnits
	return s
}

// DoneUnits returns the total credited units.
func (b *Board) DoneUnits() float64 { return b.doneUnits }
