"""Protein alphabets, including reduced alphabets for sensitive seeding.

PASTIS optionally plugs in a reduced alphabet (Murphy et al. 2000) when
extracting k-mers: collapsing similar amino acids into one symbol makes
k-mer seeds match across more-diverged homologs, increasing sensitivity at
the cost of more candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Canonical 20 amino-acid letters in a fixed order.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"

#: Characters tolerated in input but mapped onto a canonical residue.
AMBIGUOUS_MAP = {
    "B": "D",  # Asx -> Asp
    "Z": "E",  # Glx -> Glu
    "J": "L",  # Xle -> Leu
    "U": "C",  # selenocysteine -> Cys
    "O": "K",  # pyrrolysine -> Lys
    "X": "A",  # unknown -> Ala (arbitrary but deterministic)
    "*": "A",  # stop codons occasionally appear in translated ORFs
}

#: Murphy 10-letter reduced alphabet groups (Murphy, Wallqvist, Levy 2000).
MURPHY10_GROUPS = [
    "LVIM",
    "C",
    "A",
    "G",
    "ST",
    "P",
    "FYW",
    "EDNQ",
    "KR",
    "H",
]

#: Dayhoff 6-letter reduced alphabet groups.
DAYHOFF6_GROUPS = [
    "AGPST",
    "C",
    "DENQ",
    "FWY",
    "HKR",
    "ILMV",
]


@dataclass(frozen=True)
class Alphabet:
    """A (possibly reduced) residue alphabet.

    Parameters
    ----------
    name:
        Human-readable name.
    letters:
        One representative character per symbol class, in code order.
    groups:
        For reduced alphabets, the groups of canonical amino acids mapped
        onto each symbol.  For the full protein alphabet each group is a
        single letter.
    """

    name: str
    letters: str
    groups: tuple[str, ...]
    _lut: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:  # build the char -> code lookup table
        lut = np.full(256, -1, dtype=np.int16)
        for code, group in enumerate(self.groups):
            for ch in group:
                lut[ord(ch)] = code
                lut[ord(ch.lower())] = code
        # Ambiguity codes map through their canonical residue.
        for ambig, canon in AMBIGUOUS_MAP.items():
            code = lut[ord(canon)]
            lut[ord(ambig)] = code
            lut[ord(ambig.lower())] = code
        object.__setattr__(self, "_lut", lut)

    # ------------------------------------------------------------------ API
    @property
    def size(self) -> int:
        """Number of distinct symbol codes."""
        return len(self.groups)

    def encode(self, text: str) -> np.ndarray:
        """Encode a residue string into ``uint8`` codes.

        Unknown characters raise ``ValueError`` so that corrupt input is not
        silently folded into the search.
        """
        # a non-ASCII character becomes "?", which no alphabet has a code for
        codes = self._lut[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
        if (codes < 0).any():
            raise ValueError(
                f"unknown residue characters {self.unknown_characters(text)!r} "
                f"for alphabet {self.name}"
            )
        return codes.astype(np.uint8)

    def unknown_characters(self, text: str) -> list[str]:
        """The distinct characters of ``text`` this alphabet has no code for, sorted."""
        return sorted(ch for ch in set(text) if ord(ch) > 127 or self._lut[ord(ch)] < 0)

    def decode(self, codes: np.ndarray) -> str:
        """Decode ``uint8`` codes back into the representative letters."""
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.size and int(codes.max()) >= self.size:
            raise ValueError("code out of range for alphabet")
        letters = np.frombuffer(self.letters.encode("ascii"), dtype=np.uint8)
        return letters[codes].tobytes().decode("ascii")

    def project(self, other: "Alphabet", codes: np.ndarray) -> np.ndarray:
        """Re-encode codes of this alphabet into another (reduced) alphabet.

        Used when seeding is performed on a reduced alphabet but alignment on
        the full alphabet.
        """
        table = np.empty(self.size, dtype=np.uint8)
        for code, group in enumerate(self.groups):
            table[code] = other.encode(group[0])[0]
        return table[np.asarray(codes, dtype=np.uint8)]

    def __len__(self) -> int:
        return self.size


def _full_protein_alphabet() -> Alphabet:
    return Alphabet(
        name="protein20",
        letters=AMINO_ACIDS,
        groups=tuple(AMINO_ACIDS),
    )


def reduced_alphabet(name: str, groups: list[str]) -> Alphabet:
    """Build a reduced alphabet from groups of canonical amino acids.

    Every canonical amino acid must appear in exactly one group.
    """
    seen: set[str] = set()
    for group in groups:
        for ch in group:
            if ch in seen:
                raise ValueError(f"residue {ch!r} appears in more than one group")
            seen.add(ch)
    missing = set(AMINO_ACIDS) - seen
    if missing:
        raise ValueError(f"groups do not cover residues {sorted(missing)!r}")
    letters = "".join(group[0] for group in groups)
    return Alphabet(name=name, letters=letters, groups=tuple(groups))


#: The standard 20-letter protein alphabet.
PROTEIN = _full_protein_alphabet()

#: Murphy 10-letter reduced alphabet.
MURPHY10 = reduced_alphabet("murphy10", MURPHY10_GROUPS)

#: Dayhoff 6-letter reduced alphabet.
DAYHOFF6 = reduced_alphabet("dayhoff6", DAYHOFF6_GROUPS)
