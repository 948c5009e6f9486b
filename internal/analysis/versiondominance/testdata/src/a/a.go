// Package a is the versiondominance fixture: the PR 5 exact-joiner cache
// shape (summed version vectors compared for advancement) flagged, the
// componentwise dominance helpers permitted.
package a

// badCacheValid reproduces the PR 5 bug: deciding cache freshness by
// comparing sums of two version-vector captures. (4,2) and (3,3) both sum
// to 6, so a stale cache can masquerade as fresh.
func badCacheValid(prevVers, nextVers []uint64) bool {
	var prevSum, nextSum uint64
	for _, v := range prevVers {
		prevSum += v
	}
	for i := range nextVers {
		nextSum += nextVers[i]
	}
	return nextSum > prevSum // want `comparing summed version vector`
}

// badTotal leaks the fold out of the function, where callers will compare
// it: flagged at the return.
func badTotal(shardVersions []uint64) uint64 {
	total := uint64(0)
	for _, v := range shardVersions {
		total = total + v
	}
	return total // want `returning summed version vector`
}

// VersionsDominate is the whitelisted componentwise helper: permitted even
// though it compares version elements.
func VersionsDominate(next, prev []uint64) (ok, newer bool) {
	if len(next) != len(prev) {
		return false, false
	}
	for i := range next {
		if next[i] < prev[i] {
			return false, false
		}
		if next[i] > prev[i] {
			newer = true
		}
	}
	return true, newer
}

// goodUse compares through the helper: permitted.
func goodUse(prev, next []uint64) bool {
	ok, newer := VersionsDominate(next, prev)
	return ok && newer
}

// countRows sums a non-version slice: permitted, the invariant only covers
// version vectors.
func countRows(rowCounts []uint64) uint64 {
	var n uint64
	for _, c := range rowCounts {
		n += c
	}
	return n
}

// suppressedSum carries an explicit suppression with a reason: permitted.
func suppressedSum(vers []uint64) uint64 {
	var s uint64
	for _, v := range vers {
		s += v
	}
	//vsjlint:ignore versiondominance metrics-only total, never compared for dominance
	return s
}
