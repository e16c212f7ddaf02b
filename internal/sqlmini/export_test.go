package sqlmini

// SetVectorizedScans switches db's column-at-a-time scan path, so the
// external golden tests can run the same queries through row-at-a-time
// filter evaluation — the path every conjunct the vectorizer declines
// takes — and compare.
func SetVectorizedScans(db *DB, on bool) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	db.vectorized = on
}
