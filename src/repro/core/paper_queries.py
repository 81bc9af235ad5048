"""The paper's evaluation workload: Yago queries Q1–Q25 (Fig. 5) and
Uniprot queries Q26–Q50 (Fig. 6), in our UCRPQ syntax.

Predicate abbreviations from the paper footnotes are expanded to the
label names our generators emit ("isL" → isLocatedIn, "dw" → dealsWith,
"haa" → hasAcademicAdvisor, "int" → int, …). Constants that the paper
binds to named entities (Japan, Kevin_Bacon, ProteinC, …) are resolved
per-graph by :func:`repro.graphs.yago.yago_lite` /
:func:`uniprot_consts`.

Query classes C1–C6 (paper §V-D) are *derived structurally* from the
parsed query (single recursion, filter right/left of a recursion,
concatenation right/left of a recursion, concatenated recursions) — the
same definitions the paper gives, so grouping in EXPERIMENTS.md matches.
"""
from __future__ import annotations

import pandas as pd

from .rpq import CRPQ, Alt, Plus, Rx, Seq, is_var, parse_query, seq_items

YAGO_QUERIES: dict[str, str] = {
    "Q1": "?x <- ?x isMarriedTo/livesIn/isLocatedIn+/dealsWith+ Argentina",
    "Q2": "?x <- ?x hasChild/livesIn/isLocatedIn+/dealsWith+ Japan",
    "Q3": "?x <- ?x influences/livesIn/isLocatedIn+/dealsWith+ Sweden",
    "Q4": "?x <- ?x livesIn/isLocatedIn+/dealsWith+ United_States",
    "Q5": "?x <- ?x hasSuccessor/livesIn/isLocatedIn+/dealsWith+ India",
    "Q6": "?x <- ?x hasPredecessor/livesIn/isLocatedIn+/dealsWith+ Germany",
    "Q7": "?x <- ?x hasAcademicAdvisor/livesIn/isLocatedIn+/dealsWith+ Netherlands",
    "Q8": "?x <- ?x isLocatedIn+/dealsWith+ United_States",
    "Q9": "?x <- ?x (actedIn/-actedIn)+ Kevin_Bacon",
    "Q10": "?area <- wikicat_Capitals_in_Europe -type/(isLocatedIn+/dealsWith | dealsWith) ?area",
    "Q11": "?person <- ?person (isMarriedTo+/owns/isLocatedIn+ | owns/isLocatedIn+) USA",
    "Q12": "?a, ?b <- ?a isLocatedIn+/dealsWith ?b",
    "Q13": "?a, ?b <- ?a isLocatedIn+/dealsWith+ ?b",
    "Q14": "?a, ?b, ?c <- ?a wasBornIn/isLocatedIn+ ?b, ?b isConnectedTo+ ?c",
    "Q15": "?a, ?b, ?c <- ?a (isLocatedIn | isConnectedTo)+ ?b, ?a wasBornIn ?c",
    "Q16": "?a, ?b, ?c <- ?a wasBornIn/isLocatedIn+ Japan, ?b isConnectedTo+ ?c",
    "Q17": "?a <- ?a isLocatedIn+/(isConnectedTo | dealsWith)+ Japan",
    "Q18": "?a, ?c <- ?a isLocatedIn+ Japan, ?a isConnectedTo+ ?c",
    "Q19": "?a <- ?a isLocatedIn+/isLocatedIn Japan",
    "Q20": "?a <- ?a isLocatedIn+/isConnectedTo+/dealsWith+ Japan",
    "Q21": "?a, ?b <- ?a (isLocatedIn | dealsWith | rdfs:subClassOf | isConnectedTo)+ ?b",
    "Q22": "?a <- ?a (isConnectedTo/-isConnectedTo)+ Shannon_Airport",
    "Q23": "?a <- ?a (wasBornIn/isLocatedIn/-wasBornIn)+ John_Lawrence_Toole",
    "Q24": "?x <- Jay_Kappraff (livesIn/isLocatedIn/-livesIn)+ ?x",
    "Q25": "?a, ?b <- ?a (actedIn/-actedIn)+/hasChild+ ?b",
}

UNIPROT_QUERIES: dict[str, str] = {
    "Q26": "?x, ?y <- ?x -hKw/(ref/-ref)+ ?y",
    "Q27": "?x, ?y <- ?x -hKw/(enc/-enc)+ ?y",
    "Q28": "?x, ?y <- ?x -hKw/(occ/-occ)+ ?y",
    "Q29": "?x, ?y <- ?x int/(enc/-enc)+ ?y",
    "Q30": "?x, ?y <- ?x int/(occ/-occ)+ ?y",
    "Q31": "?x, ?y <- ?x int+/(occ/-occ)+ ?y",
    "Q32": "?x, ?y <- ?x int+/(enc/-enc)+ ?y",
    "Q33": "?x, ?y <- ?x int+/(occ/-occ)+/(hKw/-hKw)+ ?y",
    "Q34": "?x, ?y <- ?x -hKw/int/ref/(auth/-auth)+ ?y",
    "Q35": "?x, ?y <- ?x (enc/-enc)+/hKw ?y",
    "Q36": "?x <- ?x (enc/-enc)+ ProteinC",
    "Q37": "?x, ?y, ?z, ?t <- ?x (enc/-enc)+ ?y, ?x int+ ?z, ?x ref ?t",
    "Q38": "?x, ?y <- ?x (int | enc/-enc)+ ?y, ProteinC (occ/-occ)+ ?y",
    "Q39": "?x <- ?x int+/ref ?y, RefC (auth/-auth)+ ?y",
    "Q40": "?x <- ?x int+/ref ?y, JournalC -pub/(auth/-auth)+ ?y",
    "Q41": "?x <- JournalC -pub/(auth/-auth)+ ?x",
    "Q42": "?x, ?y <- ?x -occ/int+/occ ?y",
    "Q43": "?x, ?y <- ?x (-ref/ref)+ ?y",
    "Q44": "?x, ?y <- ?x int/ref/(-ref/ref)+ ?y",
    "Q45": "?x <- ProteinC (ref/-ref)+ ?x",
    "Q46": "?x, ?y <- ?x (-ref/ref)+/(auth | -pub) ?y",
    "Q47": "?x <- ?x (enc/-enc | occ/-occ)+ ProteinC",
    "Q48": "?x <- ProteinC int/(enc/-enc | occ/-occ)+ ?x",
    "Q49": "?x <- ProteinC (enc/-enc)+ ?x",
    "Q50": "?x <- ProteinC (occ/-occ)+ ?x",
}

ALL_QUERIES = {**YAGO_QUERIES, **UNIPROT_QUERIES}


def uniprot_consts(tri: pd.DataFrame) -> dict[str, int]:
    """Resolve the Fig. 6 constants on a generated uniprot graph: hub
    entities of the right type (the paper uses named Uniprot entities).

    ProteinC must carry int/enc/occ/ref edges so Q36–Q50 are all
    satisfiable; pick the int-busiest protein among those.
    """
    from ..graphs.uniprot import uniprot_constant

    have = {}
    for lbl in ("int", "enc", "occ", "ref"):
        have[lbl] = set(tri.loc[tri["label"] == lbl, "src"].tolist())
    candidates = have["int"] & have["enc"] & have["occ"] & have["ref"]
    ints = tri[tri["label"] == "int"]
    if candidates:
        counts = ints[ints["src"].isin(candidates)]["src"].value_counts()
        protein_c = int(counts.index[0])
    else:  # degenerate tiny graphs
        protein_c = int(ints["src"].iloc[0])
    return {
        "ProteinC": protein_c,
        "RefC": uniprot_constant(tri, "auth", end="src"),
        "JournalC": uniprot_constant(tri, "pub", end="dst"),
    }


# ---------------------------------------------------------------------------
# Structural class detection (paper §V-D definitions)
# ---------------------------------------------------------------------------


def _has_plus(rx: Rx) -> bool:
    if isinstance(rx, Plus):
        return True
    if isinstance(rx, (Seq, Alt)):
        return any(_has_plus(p) for p in rx.parts)
    return False


def query_classes(q: CRPQ | str) -> frozenset[str]:
    """C1–C6 membership per the paper's definitions:

    C1 single recursion; C2 filter right of a recursion; C3 filter left;
    C4 non-recursive concatenated right of a recursion; C5 left;
    C6 concatenation of recursions.
    """
    if isinstance(q, str):
        q = parse_query(q)
    classes: set[str] = set()
    for atom in q.atoms:
        items = seq_items(atom.rx)
        plus_pos = [i for i, it in enumerate(items) if _has_plus(it)]
        if not plus_pos:
            continue
        classes.add("C1")
        if not is_var(atom.obj) and plus_pos:
            classes.add("C2")
        if not is_var(atom.subj) and plus_pos:
            classes.add("C3")
        first_p, last_p = plus_pos[0], plus_pos[-1]
        if any(i > p for p in plus_pos for i in range(len(items)) if i not in plus_pos and i > p):
            classes.add("C4")
        if any(i < p for p in plus_pos for i in range(len(items)) if i not in plus_pos and i < p):
            classes.add("C5")
        for i, j in zip(plus_pos, plus_pos[1:]):
            if j == i + 1:
                classes.add("C6")
        del first_p, last_p
    # The paper treats C1 as "single recursion" — queries in other
    # classes are listed there only when recursion-specific rewrites are
    # not required; we keep C1 for every recursive query and report the
    # specialized classes alongside.
    return frozenset(classes)
