(** Canonical form for enumerated solution lists.

    Every engine that enumerates corrections or covers returns its
    solutions in this one canonical order, so that differently-scheduled
    enumerations of the same solution *set* — BSAT's level-by-level
    discovery order, the hitting-set engine's expansion order — print
    and compare byte-identically. *)

val compare_solution : int list -> int list -> int
(** Order solutions by cardinality first, then lexicographically by
    (sorted) members — the order a reader expects from a diagnosis
    report: smallest corrections first. *)

val canonical : int list list -> int list list
(** Sort each solution's members ascending, then sort the list of
    solutions with {!compare_solution}, dropping exact duplicates. *)

val subset : int list -> int list -> bool
(** [subset a b]: every member of [a] is in [b]; both sorted ascending. *)

val minimal_only : int list list -> int list list
(** Keep only the inclusion-minimal solutions: drop every solution that
    strictly contains another solution of the list.  Expects (and
    preserves) {!canonical} form. *)
