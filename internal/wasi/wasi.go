// Package wasi provides the minimal WASI (WebAssembly System Interface)
// host surface the Cage toolchain needs, ported to wasm64 the way the
// paper ports wasi-libc (§6.2): pointers and sizes in the ABI widen from
// 32 to 64 bits.
//
// Implemented calls: fd_write (stdout/stderr via io.Writer), proc_exit,
// clock_time_get (virtual, deterministic), random_get (seeded,
// deterministic), args_sizes_get/args_get, environ_sizes_get/environ_get.
//
// # Host surface and privilege model
//
// The functions are defined once, as a process-shared exec.HostModule
// (HostModule()); each call resolves its per-instance *System through
// the instance's host data (any value implementing Provider), so one
// resolved import table serves every pooled instance. Guest memory is
// touched exclusively through the HostContext's bounds-checked Memory
// view: guest pointers are untagged before use and every access is
// bounds-checked against the guest-visible memory size and charged to
// the timing model — but, like all host-side accesses, WASI runs with
// runtime privileges and is not subject to MTE tag checks (see the
// exec package comment for why). A fault surfaces to the guest as the
// WASI errno, never as a runtime panic.
package wasi

import (
	"errors"
	"io"

	"cage/internal/exec"
)

// Module is the WASI import-module name.
const Module = "wasi_snapshot_preview1"

// Errno values (subset). Untyped so they compare against both raw
// uint64 slots and the i32 results of the typed host surface.
const (
	ErrnoSuccess = 0
	ErrnoBadf    = 8
	ErrnoFault   = 21
	ErrnoInval   = 28
)

// System is one instance's WASI state.
type System struct {
	Stdout io.Writer
	Stderr io.Writer
	Args   []string
	Env    []string
	state  State
	// scratch holds the bytes random_get generates before they are
	// written to guest memory; it keeps its capacity, so a call
	// allocates only when it asks for more bytes than any before it.
	scratch []byte
}

// State is the part of a System that guest calls advance. It is image
// state: a snapshot captures it and every fork and pooled reset
// restores it, so no call observes what an earlier call on the same
// instance read.
type State struct {
	// clock is virtual time in nanoseconds, advanced per query so
	// repeated reads are monotone yet deterministic.
	clock uint64
	// rng is the deterministic random_get state.
	rng uint64
}

// New creates a WASI system writing to the given stdout/stderr.
func New(stdout, stderr io.Writer) *System {
	if stdout == nil {
		stdout = io.Discard
	}
	if stderr == nil {
		stderr = io.Discard
	}
	return &System{Stdout: stdout, Stderr: stderr, state: State{clock: 1_000_000_000, rng: 0x853C49E6748FEA9B}}
}

// State returns the system's current clock and random state.
func (s *System) State() State { return s.state }

// Restore rewinds the clock and random state to st.
func (s *System) Restore(st State) { s.state = st }

func (s *System) next() uint64 {
	x := s.state.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.state.rng = x
	return x
}

// Provider locates an instance's WASI state from its host data
// (exec.Config.HostData / HostContext.Data).
type Provider interface {
	WASISystem() *System
}

// WASISystem implements Provider, so a *System can itself serve as the
// instance host data in the simple single-subsystem case.
func (s *System) WASISystem() *System { return s }

// systemOf resolves the calling instance's WASI state.
func systemOf(hc *exec.HostContext) (*System, error) {
	if p, ok := hc.Data().(Provider); ok {
		if s := p.WASISystem(); s != nil {
			return s, nil
		}
	}
	return nil, errors.New("wasi: instance has no WASI system bound (HostData must implement wasi.Provider)")
}

// HostModule builds the WASI host surface on the typed host-module
// builder. The module is stateless — per-instance state lives in the
// *System the host data provides — so embedders register it once and
// share it across instances.
func HostModule() *exec.HostModule {
	hm := exec.NewHostModule(Module)

	// fd_write(fd: i32, iovs: i64, iovs_len: i64, nwritten: i64) -> i32
	exec.Func4(hm, "fd_write", func(hc *exec.HostContext, fd int32, iovs exec.Ptr, iovsLen uint64, nwritten exec.Ptr) (int32, error) {
		s, err := systemOf(hc)
		if err != nil {
			return 0, err
		}
		var w io.Writer
		switch fd {
		case 1:
			w = s.Stdout
		case 2:
			w = s.Stderr
		default:
			return ErrnoBadf, nil
		}
		mem := hc.Memory()
		var written uint64
		for i := uint64(0); i < iovsLen; i++ {
			base, err := mem.ReadU64(uint64(iovs) + i*16)
			if err != nil {
				return ErrnoFault, nil
			}
			length, err := mem.ReadU64(uint64(iovs) + i*16 + 8)
			if err != nil {
				return ErrnoFault, nil
			}
			buf, err := mem.ReadBytes(base, length)
			if err != nil {
				return ErrnoFault, nil
			}
			if _, err := w.Write(buf); err != nil {
				return ErrnoInval, nil
			}
			written += length
		}
		if err := mem.WriteU64(uint64(nwritten), written); err != nil {
			return ErrnoFault, nil
		}
		return ErrnoSuccess, nil
	})

	// proc_exit(code: i32)
	exec.Void1(hm, "proc_exit", func(_ *exec.HostContext, code int32) error {
		return &exec.Trap{Code: exec.TrapExit, ExitCode: code}
	})

	// clock_time_get(id: i32, precision: i64, out: i64) -> i32
	exec.Func3(hm, "clock_time_get", func(hc *exec.HostContext, _ int32, _ uint64, out exec.Ptr) (int32, error) {
		s, err := systemOf(hc)
		if err != nil {
			return 0, err
		}
		s.state.clock += 1000 // deterministic 1 µs per query
		if err := hc.Memory().WriteU64(uint64(out), s.state.clock); err != nil {
			return ErrnoFault, nil
		}
		return ErrnoSuccess, nil
	})

	// random_get(buf: i64, len: i64) -> i32
	exec.Func2(hm, "random_get", func(hc *exec.HostContext, buf exec.Ptr, n uint64) (int32, error) {
		s, err := systemOf(hc)
		if err != nil {
			return 0, err
		}
		// Bounds before allocation: a guest-controlled length must not
		// size a host buffer larger than the memory it could land in.
		if n > hc.Memory().Size() {
			return ErrnoFault, nil
		}
		if uint64(cap(s.scratch)) < n {
			s.scratch = make([]byte, n)
		}
		b := s.scratch[:n]
		for i := range b {
			b[i] = byte(s.next())
		}
		if err := hc.Memory().WriteBytes(uint64(buf), b); err != nil {
			return ErrnoFault, nil
		}
		return ErrnoSuccess, nil
	})

	// args_sizes_get(argc: i64, argv_buf_size: i64) -> i32
	exec.Func2(hm, "args_sizes_get", func(hc *exec.HostContext, argc, bufSize exec.Ptr) (int32, error) {
		s, err := systemOf(hc)
		if err != nil {
			return 0, err
		}
		return writeSizes(hc, s.Args, argc, bufSize)
	})

	// args_get(argv: i64, argv_buf: i64) -> i32
	exec.Func2(hm, "args_get", func(hc *exec.HostContext, argv, argvBuf exec.Ptr) (int32, error) {
		s, err := systemOf(hc)
		if err != nil {
			return 0, err
		}
		return writeStringTable(hc, s.Args, argv, argvBuf)
	})

	// environ_sizes_get / environ_get mirror the args pair.
	exec.Func2(hm, "environ_sizes_get", func(hc *exec.HostContext, envc, bufSize exec.Ptr) (int32, error) {
		s, err := systemOf(hc)
		if err != nil {
			return 0, err
		}
		return writeSizes(hc, s.Env, envc, bufSize)
	})
	exec.Func2(hm, "environ_get", func(hc *exec.HostContext, environ, environBuf exec.Ptr) (int32, error) {
		s, err := systemOf(hc)
		if err != nil {
			return 0, err
		}
		return writeStringTable(hc, s.Env, environ, environBuf)
	})

	return hm
}

// writeSizes reports a string list's count and NUL-terminated byte
// total (the args_sizes_get/environ_sizes_get contract).
func writeSizes(hc *exec.HostContext, strs []string, countAddr, totalAddr exec.Ptr) (int32, error) {
	total := uint64(0)
	for _, s := range strs {
		total += uint64(len(s)) + 1
	}
	mem := hc.Memory()
	if err := mem.WriteU64(uint64(countAddr), uint64(len(strs))); err != nil {
		return ErrnoFault, nil
	}
	if err := mem.WriteU64(uint64(totalAddr), total); err != nil {
		return ErrnoFault, nil
	}
	return ErrnoSuccess, nil
}

// writeStringTable lays out NUL-terminated strings at bufAddr and their
// pointers at tableAddr (the args_get/environ_get contract).
func writeStringTable(hc *exec.HostContext, strs []string, tableAddr, bufAddr exec.Ptr) (int32, error) {
	mem := hc.Memory()
	cursor := uint64(bufAddr)
	for i, str := range strs {
		if err := mem.WriteU64(uint64(tableAddr)+uint64(i)*8, cursor); err != nil {
			return ErrnoFault, nil
		}
		if err := mem.WriteBytes(cursor, append([]byte(str), 0)); err != nil {
			return ErrnoFault, nil
		}
		cursor += uint64(len(str)) + 1
	}
	return ErrnoSuccess, nil
}
