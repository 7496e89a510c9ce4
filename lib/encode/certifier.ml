(* certification state: the solver's proof sink, an independent checker
   fed every input clause (via the emit tee) and — batch-wise, after each
   solve — every proof step, plus pass/fail bookkeeping *)
type t = {
  proof : Sat.Proof.t;
  checker : Sat.Drup_check.t;
  mutable drained : int;           (* proof steps already checked *)
  mutable checks : int;
  mutable failures : string list;  (* newest first *)
}

let attach ~certify solver =
  if not certify then None
  else begin
    let proof = Sat.Proof.in_memory () in
    Sat.Solver.set_proof solver (Some proof);
    Some
      {
        proof;
        checker = Sat.Drup_check.create ();
        drained = 0;
        checks = 0;
        failures = [];
      }
  end

let tee cert e =
  match cert with
  | None -> e
  | Some c ->
      (* the checker must see every input clause the solver sees *)
      {
        e with
        Emit.clause =
          (fun lits ->
            Sat.Drup_check.add_clause c.checker lits;
            e.Emit.clause lits);
      }

let fail c msg = c.failures <- msg :: c.failures

(* feed the checker every proof step recorded since the last drain;
   returns the fresh slice so an Unsat claim can look for its clause *)
let drain c =
  let fresh = Sat.Proof.steps_from c.proof c.drained in
  Array.iteri
    (fun i st ->
      match Sat.Drup_check.check_step c.checker st with
      | Ok () -> ()
      | Error msg ->
          fail c (Printf.sprintf "proof step %d: %s" (c.drained + i + 1) msg))
    fresh;
  c.drained <- c.drained + Array.length fresh;
  fresh

let verdict cert solver ~assumptions result =
  match cert with
  | None -> ()
  | Some c -> (
      (* an Unknown answer makes no claim, but the drain keeps the
         checker in step so the next claim's clauses are all accounted
         for *)
      let fresh = drain c in
      match result with
      | Sat.Solver.Unknown -> ()
      | Sat.Solver.Solved Sat.Solver.Sat ->
          c.checks <- c.checks + 1;
          if
            not
              (Sat.Drup_check.model_ok ~assumptions c.checker
                 (Sat.Solver.value solver))
          then fail c "Sat answer: model violates the clause set"
      | Sat.Solver.Solved Sat.Solver.Unsat ->
          c.checks <- c.checks + 1;
          if not (Sat.Drup_check.concludes c.checker ~assumptions fresh) then
            fail c "Unsat answer: no certifying clause in the proof")

let checks = function None -> 0 | Some c -> c.checks
let failures = function None -> [] | Some c -> List.rev c.failures
