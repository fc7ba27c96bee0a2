package experiments

import (
	"fmt"
	"strconv"

	"localmds/internal/gen"
)

// Spec declares one experiment as a table skeleton plus independent tasks.
// Declaring instead of running is what makes the suite schedulable: the
// concurrent orchestrator in internal/runner executes the tasks of many
// specs on one set of workers and replicates them across seeds, while
// RunSequential below keeps a simple in-process path for tests and the
// orchestrator's reference.
type Spec struct {
	// Name identifies the experiment in seed derivation; it
	// must be stable across releases or recorded tables change.
	Name   string
	Title  string
	Header []string
	Tasks  []Task
}

// Task is one independently schedulable unit of experiment work producing
// one or more consecutive table rows. Tasks of the same Spec must not
// share mutable state: each receives its own derived seed and builds its
// own instances, which removes the shared-RNG ordering hazard (editing one
// row can no longer shift the random stream any other row observes).
type Task struct {
	// Row identifies the task's row block within the experiment; it must
	// be unique within the Spec and stable across releases. Rows that
	// must observe the same generated instance (a radius sweep over one
	// graph, the two Table 1 rows per K_{2,t} class) belong to one task.
	Row string
	// Run executes the task with its derived seed and returns its rows.
	Run func(seed int64) ([][]string, error)
}

// TaskSeed derives the RNG seed for one (experiment, row, replicate)
// cell from the root seed. Both the sequential path and internal/runner
// call this, so a fixed root yields identical tables regardless of worker
// count or execution order.
func TaskSeed(root int64, experiment, row string, replicate int) int64 {
	return gen.DeriveSeed(root, experiment, row, strconv.Itoa(replicate))
}

// RunSequential executes the spec's tasks in declaration order on the
// calling goroutine, with replicate-0 seeds derived from root, and
// assembles the table. cmd/mdsbench uses internal/runner instead.
func (s Spec) RunSequential(root int64) (*Table, error) {
	t := &Table{Title: s.Title, Header: s.Header}
	for _, task := range s.Tasks {
		rows, err := task.Run(TaskSeed(root, s.Name, task.Row, 0))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.Name, task.Row, err)
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}
