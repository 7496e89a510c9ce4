type t = {
  fresh : unit -> int;
  clause : Sat.Lit.t list -> unit;
}

let of_solver s =
  {
    fresh = (fun () -> Sat.Solver.new_var s);
    clause = (fun c -> Sat.Solver.add_clause s c);
  }

let tee e mirror =
  {
    fresh =
      (fun () ->
        let v = e.fresh () in
        let v' = Sat.Cnf.fresh_var mirror in
        if v <> v' then
          invalid_arg "Emit.tee: sinks allocate variables out of step";
        v);
    clause =
      (fun c ->
        Sat.Cnf.add_clause mirror c;
        e.clause c);
  }
