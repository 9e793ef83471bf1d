package coopmrm

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// SweepSeedsStreamWithArtifacts folds the table SweepSeedsStream folds
// and captures the runs of the plan's first eight seeds in a pass after
// the fold, so a campaign resumed past that prefix still captures
// exactly the runs of an uninterrupted one.
func TestSweepStreamWithArtifactsCapturesPlanPrefix(t *testing.T) {
	e, ok := ExperimentByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	opt := Options{Quick: true}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

	full, err := SweepSeedsStreamWithArtifacts(e, opt, seeds, 2, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	table, err := SweepSeedsStream(e, opt, seeds, 2, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Table.Render() != table.Render() {
		t.Errorf("table differs from SweepSeedsStream:\n%s\nvs\n%s", full.Table.Render(), table.Render())
	}
	if full.WallN != len(seeds) {
		t.Errorf("wall samples = %d, want %d", full.WallN, len(seeds))
	}
	captured := map[string]bool{}
	for _, run := range full.Runs {
		prefix, _, _ := strings.Cut(run.Name, "/")
		captured[prefix] = true
	}
	for _, s := range seeds {
		want := s <= streamRunsCaptureCap
		if got := captured[fmt.Sprintf("seed=%d", s)]; got != want {
			t.Errorf("seed %d captured = %v, want %v", s, got, want)
		}
	}

	// Abort past the capture prefix (the checkpoint holds 9 folds),
	// then resume: only seed 10 is folded, yet the capture is whole.
	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	_, err = SweepSeedsStreamWithArtifacts(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt,
		Every:      3,
		OnFold: func(done, total int) error {
			if done >= 9 {
				return fmt.Errorf("simulated kill")
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("aborted campaign should report the abort")
	}
	resumed, err := SweepSeedsStreamWithArtifacts(e, opt, seeds, 2, CampaignConfig{
		Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.WallN != 1 {
		t.Errorf("resumed campaign timed %d seeds, want 1", resumed.WallN)
	}
	if resumed.Table.Render() != full.Table.Render() {
		t.Error("resumed table differs from uninterrupted")
	}
	if !reflect.DeepEqual(resumed.Runs, full.Runs) {
		t.Errorf("resumed campaign captured %d runs, uninterrupted %d; want identical",
			len(resumed.Runs), len(full.Runs))
	}
}
