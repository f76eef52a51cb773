package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"mcommerce/internal/obs"
)

// timelineTag turns a mode name into a filename-safe tag.
func timelineTag(parts ...string) string {
	tag := strings.Join(parts, "-")
	tag = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		case r == ' ', r == ',', r == '.', r == '_':
			return '-'
		}
		return -1
	}, tag)
	for strings.Contains(tag, "--") {
		tag = strings.ReplaceAll(tag, "--", "-")
	}
	return strings.Trim(tag, "-")
}

// writeTimeline exports one run's timeline next to o.Timeline, tagged.
// A write failure is reported on the result rather than aborting the
// experiment.
func (o *Options) writeTimeline(res *Result, tag string, tl *obs.Timeline, slo []obs.Interval) {
	if o.Timeline == "" {
		return
	}
	ext := filepath.Ext(o.Timeline)
	path := strings.TrimSuffix(o.Timeline, ext) + "." + tag + ext
	err := WriteFile(path, func(f io.Writer) error { return obs.WriteJSON(f, tl, slo) })
	if err != nil {
		res.Note("timeline export failed: %v", err)
		return
	}
	res.Note("timeline: %s", path)
}

// sloCell renders an SLO verdict for a result table cell: the number of
// violation intervals and the worst single burn.
func sloCell(intervals []obs.Interval) string {
	if len(intervals) == 0 {
		return "0"
	}
	var worst time.Duration
	for _, iv := range intervals {
		if d := iv.End - iv.Start; d > worst {
			worst = d
		}
	}
	return fmt.Sprintf("%d (worst %s)", len(intervals), fmtDur(worst))
}
