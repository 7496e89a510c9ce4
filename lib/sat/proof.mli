(** DRUP proof logs.

    A proof is the sequence of clause additions (every clause the solver
    learns, post-minimization, plus the final clause certifying an Unsat
    answer) and clause deletions (learnt-DB reduction) in derivation
    order.  Each added clause is a *reverse unit propagation* (RUP)
    consequence of the input formula and the additions before it, so the
    whole sequence can be validated by the independent forward checker
    ({!Drup_check}) with no trust in the solver.

    Steps are canonicalized on entry (literals sorted by code), so a
    proof's serialization is a pure function of the solver trajectory:
    the same instance solved twice yields byte-identical proofs. *)

type step =
  | Add of Lit.t list     (** derived clause; [[]] is the empty clause *)
  | Delete of Lit.t list  (** clause removed from the active set *)

type t

val in_memory : unit -> t
(** An empty log.  It retains every step for in-process checking
    ({!steps}) and serialization as DRUP text ({!to_string}). *)

val add : t -> Lit.t list -> unit
(** Record a derived clause. *)

val delete : t -> Lit.t list -> unit
(** Record a deletion. *)

val add_codes : t -> int array -> unit
(** [add t] of the literals encoded by {!Lit.code}; avoids the
    intermediate list on the solver's hot logging path. *)

val delete_codes : t -> int array -> unit
(** [delete t] of the literals encoded by {!Lit.code}. *)

val num_steps : t -> int
(** Steps recorded so far (both kinds). *)

val steps : t -> step array
(** The retained steps, in derivation order. *)

val steps_from : t -> int -> step array
(** [steps_from t i]: the retained steps from index [i] on (the steps a
    consumer that has seen the first [i] has not), without copying the
    earlier ones.
    @raise Invalid_argument when [i] is outside [0 .. num_steps]. *)

val step_to_string : step -> string
(** One DRUP text line, newline-terminated. *)

val to_string : t -> string
(** The full DRUP text: one step per line, DIMACS literal numbering,
    deletions prefixed [d], each line terminated by [0]. *)
