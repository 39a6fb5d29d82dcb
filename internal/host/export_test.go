package host

// DirtyState reports the run state Reset must clear: outstanding tags,
// whether a stalled access awaits re-injection, and tags marked remote.
func DirtyState(d *Driver) (outstanding int, queued bool, remote int) {
	for l := range d.pending {
		for tag, issue := range d.pending[l] {
			if issue >= 0 {
				outstanding++
			}
			if d.remote[l][tag] {
				remote++
			}
		}
	}
	return outstanding, d.hasQueued, remote
}
