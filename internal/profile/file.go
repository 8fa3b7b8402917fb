package profile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SaveFile writes the database to path crash-safely: the envelope is
// written to a temporary file in the same directory, fsynced, and renamed
// over path. A failure at any point leaves whatever was previously at
// path untouched and removes the temporary, so readers only ever see the
// old image or the complete new one — never a truncated hybrid.
func SaveFile(db *DB, path string) error {
	return WriteAtomic(path, db.Save)
}

// LoadFile reads a database written by SaveFile (or any Save output on
// disk), with the envelope's CRC and version checks applied.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("profile: load %s: %w", path, err)
	}
	defer f.Close()
	db, err := LoadDB(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// WriteAtomic writes a file via the temp-file + fsync + rename pattern
// shared by SaveFile and the collector's checkpoint: write writes the content
// to the temporary, and only a fully synced temporary is renamed onto
// path. On error the temporary is removed and path is left as it was.
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("profile: atomic write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("profile: atomic write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("profile: atomic write %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("profile: atomic write %s: close: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("profile: atomic write %s: %w", path, err)
	}
	// Sync the directory so the rename itself survives power loss. A
	// rename that is not durable breaks the atomic-write contract (a
	// crash could resurrect the old image after the new one was
	// acknowledged), so failures propagate — except filesystems that
	// cannot fsync a directory at all, where the rename is as durable as
	// that filesystem gets.
	if err = syncDir(dir); err != nil {
		return fmt.Errorf("profile: atomic write %s: dir sync: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory, tolerating only filesystems where the
// operation is unsupported (EINVAL/ENOTSUP spellings vary; Go maps them
// to errors.ErrUnsupported where it can).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return d.Close()
}
