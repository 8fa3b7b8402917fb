package ingest

import "os"

// SetWALFsync routes the WAL's durability fsyncs through fsync, so
// external tests can hold or fail a verdict behind a real server.
func SetWALFsync(c *Config, fsync func(*os.File) error) { c.walFsync = fsync }
