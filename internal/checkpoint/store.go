package checkpoint

import (
	"errors"
	"fmt"
)

// ErrStoreClosed reports operations against a closed FileStore.
var ErrStoreClosed = errors.New("checkpoint: store closed")

// IsBase reports whether the checkpoint restores on its own: every
// component in it carries a full handler capture.
func (c *Checkpoint) IsBase() bool {
	for _, cs := range c.Components {
		if cs.Kind != HandlerFull {
			return false
		}
	}
	return true
}

// admit is FileStore's Apply rule: given the sequence number of the newest
// entry held (0 when empty), it reports whether c is to be skipped as stale,
// and rejects a delta that would not extend that entry.
func admit(newest uint64, c *Checkpoint) (skip bool, err error) {
	if newest != 0 && c.Seq <= newest {
		return true, nil // duplicate or stale; idempotent
	}
	if !c.IsBase() && (newest == 0 || c.Seq != newest+1) {
		return false, fmt.Errorf("checkpoint: delta seq %d does not extend the store's newest entry (seq %d; 0 = empty)", c.Seq, newest)
	}
	return false, nil
}

// chainStart returns the index at which the n-th newest chain starts among
// count entries (oldest first) whose delta flags isDelta reports, or 0 when
// they hold fewer chains than that.
func chainStart(n, count int, isDelta func(i int) bool) int {
	for i := count - 1; i >= 0; i-- {
		if !isDelta(i) {
			if n--; n == 0 {
				return i
			}
		}
	}
	return 0
}

// retainChains is how many chains a FileStore keeps: the newest, and its
// predecessor to fall back to.
const retainChains = 2
