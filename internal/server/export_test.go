package server

// Frontier is every shard's (version, epoch), for the external tests.
func (s *Server) Frontier() (vers, epochs []uint64) { return (&replBackend{s: s}).Frontier() }
