(** Deletion-based minimisation: the one loop that shrinks a set until
    no element can be dropped (an essential set, Definition 4 of the
    paper, or an irreducible unsat core).

    Each element is dropped in turn and [test] judges the working set
    without it.  The working set only ever shrinks, so every set the
    loop holds is a superset of its result. *)

type 'a verdict =
  | Holds  (** the set without the element still holds: drop it *)
  | Holds_within of ('a -> bool)
      (** so do its members satisfying the predicate (a fresh unsat
          core, say): narrow the working set to them *)
  | Fails  (** the element is needed: keep it *)
  | Unknown  (** undecided (a budget ran out): stop *)

val deletion :
  test:('a list -> 'a verdict) -> 'a list -> ('a list, 'a list) result
(** [deletion ~test xs] probes the elements of [xs] in order, one probe
    each (fewer after a narrowing).  [test] sees the kept elements most
    recent first, then the untested rest.  [Ok s] is the sub-list of
    [xs] (in its order) that no verdict dropped; for a monotone property
    holding on [xs] and an exact [test], every set obtained by dropping
    one member of [s] fails.  [Error s] is the working set when a probe
    answered [Unknown]: the kept elements in input order, then the
    element under test and the untested rest. *)
