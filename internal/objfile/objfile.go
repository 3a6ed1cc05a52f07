// Package objfile encodes a guest program as one deterministic byte
// string, the object image. The image is the "workload" section of every
// campaign cache key (workload.ProgramBytes, campaign.Spec.Key): any
// change to what a program holds changes its bytes, and so its key.
// Nothing reads an image back, so the format only has to be complete and
// stable, not decodable by a loader.
//
// The image carries exactly the metadata CHEx86 bootstraps its shadow
// capability table from, in the sections a loader would hand to the
// microcode engine: the symbol table (one capability per global data
// object, Section IV-C) and the relocation entries (shadow-alias seeds
// for pointer slots materialized through constant pools, Section V-B):
//
//	.text    the instruction stream
//	.symtab  global objects: name, address, size, writability
//	.reloc   pointer slots the loader fills with a global's address
//	.data    initialized data words
//	.labels  resolved code labels, sorted by name
//
// Integers are little-endian varints, strings are length-prefixed, and a
// CRC-32 over the whole image trails it. Changing any byte of this
// layout, the trailer included, changes every cache key.
package objfile

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"

	"chex86/internal/asm"
	"chex86/internal/isa"
)

// Magic opens every object image.
const Magic = "CHX86OBJ"

// Version is the format version written after Magic.
const Version = 1

// Encode serializes the program to its object-image byte form.
func Encode(p *asm.Program) []byte {
	var w imageWriter
	w.raw(Magic)
	w.uvar(Version)
	w.uvar(p.TextBase)

	// .text
	w.uvar(uint64(len(p.Insts)))
	for i := range p.Insts {
		w.inst(&p.Insts[i])
	}

	// .symtab
	w.uvar(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		w.str(g.Name)
		w.uvar(g.Addr)
		w.uvar(g.Size)
		var flags byte
		if g.ReadOnly {
			flags |= 1
		}
		w.byte(flags)
	}

	// .reloc
	w.uvar(uint64(len(p.Relocs)))
	for _, r := range p.Relocs {
		w.uvar(r.Slot)
		w.str(r.Target)
	}

	// .data
	w.uvar(uint64(len(p.Data)))
	for _, d := range p.Data {
		w.uvar(d.Addr)
		w.uvar(d.Val)
	}

	// .labels
	w.uvar(uint64(len(p.Labels)))
	for _, name := range sortedKeys(p.Labels) {
		w.str(name)
		w.uvar(p.Labels[name])
	}

	sum := crc32.ChecksumIEEE(w.buf.Bytes())
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	w.buf.Write(tail[:])
	return w.buf.Bytes()
}

// imageWriter builds the object image. All integers are varints; strings
// are length-prefixed UTF-8.
type imageWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *imageWriter) raw(s string)  { w.buf.WriteString(s) }
func (w *imageWriter) byte(b byte)   { w.buf.WriteByte(b) }
func (w *imageWriter) uvar(v uint64) { w.buf.Write(w.tmp[:binary.PutUvarint(w.tmp[:], v)]) }
func (w *imageWriter) svar(v int64)  { w.buf.Write(w.tmp[:binary.PutVarint(w.tmp[:], v)]) }

func (w *imageWriter) str(s string) {
	w.uvar(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *imageWriter) operand(o *isa.Operand) {
	w.byte(byte(o.Kind))
	switch o.Kind {
	case isa.OpReg:
		w.byte(byte(o.Reg))
	case isa.OpImm:
		w.svar(o.Imm)
	case isa.OpMem:
		w.byte(byte(o.Mem.Base))
		w.byte(byte(o.Mem.Index))
		w.byte(o.Mem.Scale)
		w.svar(o.Mem.Disp)
	}
}

func (w *imageWriter) inst(in *isa.Inst) {
	w.byte(byte(in.Op))
	w.byte(byte(in.Cond))
	w.byte(in.EncLen)
	w.uvar(in.Addr)
	w.uvar(in.Target)
	w.operand(&in.Dst)
	w.operand(&in.Src)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
