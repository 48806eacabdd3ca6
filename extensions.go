package nbody

import "repro/internal/checkpoint"

// SaveCheckpoint writes the system to path (atomic, checksummed binary
// format).
func SaveCheckpoint(path string, sys *System) error {
	return checkpoint.Save(path, sys)
}

// LoadCheckpoint reads a system written by SaveCheckpoint.
func LoadCheckpoint(path string) (*System, error) {
	return checkpoint.Load(path)
}
