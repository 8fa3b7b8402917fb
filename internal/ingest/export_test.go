package ingest

// Sealed reports whether admission is closed for export.
func (s *Service) Sealed() bool { return s.sealed.Load() }
