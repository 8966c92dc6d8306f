// Package buildinfo resolves the version string every cmd prints for
// its -version flag. Release builds inject an exact version via
//
//	go build -ldflags "-X targad/internal/buildinfo.version=v1.2.3"
//
// and otherwise the string is derived from the module build
// information the Go toolchain embeds (module version for installed
// builds, VCS revision and dirty bit for source builds), falling back
// to "devel".
package buildinfo

import (
	"runtime/debug"
	"strings"
)

// version is the ldflags override; empty outside release builds.
var version string

// Version returns the best available version string for this binary.
func Version() string {
	return versionFrom(readBuildInfo())
}

// readBuildInfo is indirected for tests.
var readBuildInfo = func() *debug.BuildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return nil
	}
	return bi
}

// versionFrom derives the string from one build-info snapshot.
func versionFrom(bi *debug.BuildInfo) string {
	if version != "" {
		return version
	}
	if bi == nil {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	if rev := revisionFrom(bi); rev != "unknown" {
		return "devel+" + rev
	}
	return "devel"
}

// Revision returns the VCS revision the binary was built from (short
// form, "-dirty" suffixed for modified trees), or "unknown" when the
// toolchain embedded none — test binaries, GOFLAGS=-buildvcs=false.
func Revision() string {
	return revisionFrom(readBuildInfo())
}

// revisionFrom derives the revision from one build-info snapshot.
func revisionFrom(bi *debug.BuildInfo) string {
	if bi == nil {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

// GoVersion returns the toolchain that built the binary ("" unknown).
func GoVersion() string {
	bi := readBuildInfo()
	if bi == nil {
		return ""
	}
	return strings.TrimSpace(bi.GoVersion)
}
