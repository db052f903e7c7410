"""Symbols: named addresses with size and kind.

Function symbols may carry a reference to the IR the corpus generator
compiled them from — the Parallax protector uses that IR when it selects
a function for translation into a verification ROP chain (in the paper
this corresponds to recompiling selected source via the ROP compiler).
"""

from __future__ import annotations

from typing import Optional


class SymbolKind:
    FUNCTION = "function"
    OBJECT = "object"
    LABEL = "label"


class Symbol:
    """A named address in the image.

    Attributes:
        name: symbol name, unique within an image.
        vaddr: address of the first byte.
        size: extent in bytes (0 when unknown).
        kind: one of :class:`SymbolKind`.
        ir: for functions generated by our corpus, the IR function object
            this symbol was compiled from (``None`` for hand-written code).
    """

    __slots__ = ("name", "vaddr", "size", "kind", "ir")

    def __init__(
        self,
        name: str,
        vaddr: int,
        size: int = 0,
        kind: str = SymbolKind.FUNCTION,
        ir=None,
    ):
        self.name = name
        self.vaddr = vaddr
        self.size = size
        self.kind = kind
        self.ir = ir

    @property
    def end(self) -> int:
        return self.vaddr + self.size

    def contains(self, vaddr: int) -> bool:
        return self.vaddr <= vaddr < self.end if self.size else vaddr == self.vaddr

    def __repr__(self) -> str:
        return f"<Symbol {self.name} @{self.vaddr:#x} +{self.size} {self.kind}>"


class SymbolTable:
    """Name- and address-indexed symbol lookup."""

    def __init__(self):
        self._by_name = {}
        self._sorted_cache = None

    def add(self, symbol: Symbol) -> Symbol:
        if symbol.name in self._by_name:
            raise KeyError(f"duplicate symbol {symbol.name!r}")
        self._by_name[symbol.name] = symbol
        self._sorted_cache = None
        return symbol

    def __getitem__(self, name: str) -> Symbol:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str, default: Optional[Symbol] = None) -> Optional[Symbol]:
        return self._by_name.get(name, default)

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def functions(self):
        """All function symbols, in address order."""
        return sorted(
            (s for s in self if s.kind == SymbolKind.FUNCTION),
            key=lambda s: s.vaddr,
        )

    def at(self, vaddr: int) -> Optional[Symbol]:
        """The symbol whose range covers ``vaddr``, if any.

        Bisects a cached address index — the profiler calls this once
        per distinct executed instruction, so it must stay cheap.
        """
        import bisect

        if self._sorted_cache is None:
            symbols = sorted(self, key=lambda s: s.vaddr)
            self._sorted_cache = (symbols, [s.vaddr for s in symbols])
        symbols, addresses = self._sorted_cache
        idx = bisect.bisect_right(addresses, vaddr) - 1
        if idx < 0:
            return None
        sym = symbols[idx]
        return sym if sym.contains(vaddr) else None
