(** Clause sink abstraction: encodings emit into an incremental
    {!Sat.Solver.t}, optionally mirrored into a {!Sat.Cnf.t} for DIMACS
    export ({!tee}), and a certifier may wrap the sink to see every
    clause. *)

type t = {
  fresh : unit -> int;             (** allocate a new variable *)
  clause : Sat.Lit.t list -> unit; (** add a clause *)
}

val of_solver : Sat.Solver.t -> t

val tee : t -> Sat.Cnf.t -> t
(** Mirror every clause (and variable allocation) of a sink into a CNF —
    used to export an incremental instance as DIMACS. *)
