// Package vme models the host side of CLARE's SUN3/160 attachment: the
// memory-mapped control window and the 8-bit control register that selects
// and drives the two filter boards (§2.2).
//
// CLARE is mapped into /dev/vme24d16 with a shared window for FS1 and
// FS2. The register protocol is:
//
//   - bit b2 selects the board: 0 = FS1, 1 = FS2 (the boards are mutually
//     exclusive).
//   - bits b0/b1 select the board's operational mode (§3's table).
//   - bit b7 (read-only) reports that the last search found a match.
package vme

import (
	"fmt"

	"clare/internal/fault"
	"clare/internal/fs2"
)

// The shared address window (§2.2). The paper quotes the hex range
// ffff7e00–ffff7fff for the boards' registers within the 24-bit VME
// space's mapping.
const (
	WindowBase uint32 = 0xffff7e00
	WindowEnd  uint32 = 0xffff7fff
)

// Control register bit positions.
const (
	BitMode0  = 0 // b0: mode select low
	BitMode1  = 1 // b1: mode select high
	BitSelect = 2 // b2: 0 = FS1, 1 = FS2
	BitMatch  = 7 // b7: match found (read-only)
)

// Board identifies which filter the control register addresses.
type Board uint8

const (
	// BoardFS1 is the superimposed-codeword index filter.
	BoardFS1 Board = iota
	// BoardFS2 is the partial test unification filter.
	BoardFS2
)

func (b Board) String() string {
	if b == BoardFS1 {
		return "FS1"
	}
	return "FS2"
}

// Bus is the host's view of the CLARE window: a control register wired to
// the FS2 engine (FS1's matcher is combinational and has no modes; its
// selection bit exists so the two boards never drive the bus together).
type Bus struct {
	fs2     *fs2.Engine
	control uint8

	// flt, when non-nil, injects bus timeouts: SelectFS2 probes
	// fault.SiteBus before driving the control register.
	flt    *fault.Injector
	fltKey string

	// Timeouts counts injected bus faults this bus surfaced.
	Timeouts int
}

// NewBus wires a bus to an FS2 engine.
func NewBus(engine *fs2.Engine) *Bus { return &Bus{fs2: engine} }

// InWindow reports whether addr falls inside the CLARE register window.
func InWindow(addr uint32) bool { return addr >= WindowBase && addr <= WindowEnd }

// WriteControl writes the control register, switching board selection and
// operational mode. Bit 7 is read-only and ignored on writes.
func (b *Bus) WriteControl(v uint8) {
	b.control = v &^ (1 << BitMatch)
	if b.Selected() == BoardFS2 {
		mode := fs2.ModeFromBits(v>>BitMode0&1, v>>BitMode1&1)
		b.fs2.SetMode(mode)
	}
}

// ReadControl returns the control register with the live match bit.
func (b *Bus) ReadControl() uint8 {
	v := b.control
	if b.Selected() == BoardFS2 && b.fs2.MatchFound() {
		v |= 1 << BitMatch
	}
	return v
}

// Selected reports which board bit b2 addresses.
func (b *Bus) Selected() Board {
	if b.control&(1<<BitSelect) != 0 {
		return BoardFS2
	}
	return BoardFS1
}

// SetFaults arms fault injection on the bus. key identifies the slot to
// keyed rules.
func (b *Bus) SetFaults(inj *fault.Injector, key string) {
	b.flt = inj
	b.fltKey = key
}

// SelectFS2 sets b2 and the FS2 mode bits in one write, returning the
// value written — a convenience for the §3 protocol sequences. An
// injected bus timeout (the board stops acknowledging the host) leaves
// the control register untouched and surfaces as an error.
func (b *Bus) SelectFS2(mode fs2.Mode) (uint8, error) {
	if err := b.flt.Probe(fault.SiteBus, b.fltKey); err != nil {
		b.Timeouts++
		return 0, err
	}
	b0, b1 := mode.ControlBits()
	v := uint8(1<<BitSelect) | b0<<BitMode0 | b1<<BitMode1
	b.WriteControl(v)
	return v, nil
}

// SelectFS1 clears b2, handing the window to FS1.
func (b *Bus) SelectFS1() { b.WriteControl(b.control &^ (1 << BitSelect)) }

// FS2 exposes the wired engine.
func (b *Bus) FS2() *fs2.Engine { return b.fs2 }

// String renders the register for diagnostics.
func (b *Bus) String() string {
	return fmt.Sprintf("vme control=0b%08b board=%v", b.ReadControl(), b.Selected())
}
