"""TLB entry and key types shared by all translation structures.

A translation is identified by the tuple (VM ID, process/ASID, VPN, page
size) — the same fields the paper's POM-TLB metadata stores (Figure 5:
valid, VM ID, Process ID, VPN, PPN, attributes).

Two representations exist:

* :class:`TlbKey` — the named, documented shape.  Cold paths, tests and
  reporting use it.
* **packed integer keys** — the hot-path representation.  All four
  fields are packed into one int (:func:`pack_key`), so building a key
  is a handful of shifts/ors instead of a NamedTuple allocation, and
  set dictionaries hash a machine int instead of a 4-tuple.  The
  translation structures (:class:`~repro.tlb.tlb.SramTlb`, the POM-TLB
  partitions, the skewed POM-TLB) are keyed by packed ints.

Packed layout, LSB first (widths checked by ``pack_key_checked`` and
the property tests)::

    bit  0         large-page flag (1 bit)
    bits 1 .. 16   vm_id  (KEY_VM_BITS = 16)
    bits 17 .. 32  asid   (KEY_ASID_BITS = 16)
    bits 33 ..     vpn    (unbounded; <= 36 bits for 48-bit VAs)

Distinct (vm_id, asid, vpn, large) tuples within the field widths map
to distinct packed ints — the representation is a bijection, which is
what makes counter equivalence with the NamedTuple engine automatic.
"""

from __future__ import annotations

from typing import NamedTuple

KEY_VM_BITS = 16
KEY_ASID_BITS = 16

KEY_VM_SHIFT = 1
KEY_ASID_SHIFT = KEY_VM_SHIFT + KEY_VM_BITS    # 17
KEY_VPN_SHIFT = KEY_ASID_SHIFT + KEY_ASID_BITS  # 33

KEY_VM_MASK = (1 << KEY_VM_BITS) - 1
KEY_ASID_MASK = (1 << KEY_ASID_BITS) - 1

#: Mask selecting the (vm_id) bits of a packed key.
KEY_VM_FIELD_MASK = KEY_VM_MASK << KEY_VM_SHIFT

#: Multipliers of the SRAM TLB set hash.  A key's set is
#: ``(vpn ^ vm_id * SET_HASH_VM ^ asid * SET_HASH_ASID) & set_mask``, so
#: co-running guests spread over the sets (the paper applies the same
#: trick to the POM-TLB set mapping).
SET_HASH_VM = 0x9E37
SET_HASH_ASID = 0x85EB


def pack_key(vm_id: int, asid: int, vpn: int, large: bool) -> int:
    """Pack a translation identity into one integer (unchecked)."""
    return ((vpn << KEY_VPN_SHIFT) | (asid << KEY_ASID_SHIFT)
            | (vm_id << KEY_VM_SHIFT) | (1 if large else 0))


def pack_context(vm_id: int, asid: int) -> int:
    """Pack only the software context; OR in ``vpn``/``large`` later.

    ``Machine.run`` interns one packed context per stream, so the
    per-reference key build is two shift-or operations.
    """
    return (asid << KEY_ASID_SHIFT) | (vm_id << KEY_VM_SHIFT)


def pack_key_checked(vm_id: int, asid: int, vpn: int, large: bool) -> int:
    """:func:`pack_key` with field-width validation (cold paths only)."""
    if not 0 <= vm_id <= KEY_VM_MASK:
        raise ValueError(f"vm_id {vm_id} does not fit {KEY_VM_BITS} bits")
    if not 0 <= asid <= KEY_ASID_MASK:
        raise ValueError(f"asid {asid} does not fit {KEY_ASID_BITS} bits")
    if vpn < 0:
        raise ValueError(f"vpn must be non-negative, got {vpn}")
    return pack_key(vm_id, asid, vpn, large)


def unpack_key(packed: int) -> "TlbKey":
    """Inverse of :func:`pack_key`."""
    return TlbKey(vm_id=(packed >> KEY_VM_SHIFT) & KEY_VM_MASK,
                  asid=(packed >> KEY_ASID_SHIFT) & KEY_ASID_MASK,
                  vpn=packed >> KEY_VPN_SHIFT,
                  large=bool(packed & 1))


class TlbKey(NamedTuple):
    """Identity of one translation, unique system-wide (named view)."""

    vm_id: int
    asid: int
    vpn: int
    large: bool

    def pack(self) -> int:
        """The packed-integer form of this key (validated)."""
        return pack_key_checked(self.vm_id, self.asid, self.vpn, self.large)


class TlbEntry(NamedTuple):
    """Payload of one translation: the host-physical frame + attributes.

    ``writable`` stands in for the protection bits of the paper's ``attr``
    field; LRU bits are kept by the containing structure, not the entry.
    Immutable, so one entry is shared by every structure a miss fills;
    hot paths build it with ``tuple.__new__(TlbEntry, (ppn, True))``.
    """

    ppn: int
    writable: bool = True

    def translate(self, vaddr: int, page_shift: int) -> int:
        """Apply this mapping to a full virtual address."""
        offset_mask = (1 << page_shift) - 1
        return (self.ppn << page_shift) | (vaddr & offset_mask)
