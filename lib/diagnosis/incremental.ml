type t = {
  solver : Sat.Solver.t;
  inst : Encode.Muxed.t;
  k : int;
  mutable obs : Obs.t option;
  circuit : Netlist.Circuit.t;
  force_zero : bool option;
  certify : bool;
  mutable tests : Sim.Testgen.test list;  (* accumulated, in arrival order *)
  mutable last_truncated : bool;
  mutable retired : bool;
  (* portfolio runs bypass the live instance; their certification
     outcomes accumulate here instead *)
  mutable portfolio_checks : int;
  mutable portfolio_failures : string list;
  (* the essential set of the last complete (untruncated) enumeration
     and the number of tests it was enumerated for *)
  mutable carried : (int list list * int) option;
  mutable reused : int;
  mutable revalidated : int;
  mutable solver_calls : int;
}

let create ?force_zero ?obs ?(certify = false) ~k c tests =
  let solver = Sat.Solver.create () in
  Option.iter (Sat.Solver.attach_obs ~prefix:"incremental" solver) obs;
  let inst =
    Telemetry.phase obs "incremental/cnf" (fun () ->
        Encode.Muxed.build ?force_zero ~certify ~max_k:k solver c tests)
  in
  {
    solver;
    inst;
    k;
    obs;
    circuit = c;
    force_zero;
    certify;
    tests;
    last_truncated = false;
    retired = false;
    portfolio_checks = 0;
    portfolio_failures = [];
    carried = None;
    reused = 0;
    revalidated = 0;
    solver_calls = 0;
  }

let check_live t ~what =
  if t.retired then
    invalid_arg (Printf.sprintf "Incremental.%s: context is retired" what)

let attach t obs =
  check_live t ~what:"attach";
  t.obs <- obs;
  match obs with
  | Some o -> Sat.Solver.attach_obs ~prefix:"incremental" t.solver o
  | None -> Sat.Solver.detach_obs t.solver

let retire t =
  if not t.retired then begin
    t.retired <- true;
    t.obs <- None;
    Sat.Solver.detach_obs t.solver
  end

let retired t = t.retired

let add_tests_fault = Atomic.make None

let fail_next_add_tests ~after = Atomic.set add_tests_fault (Some after)

let add_tests t tests =
  check_live t ~what:"add_tests";
  Telemetry.instant t.obs ~payload:(List.length tests) "incremental/add_tests";
  t.tests <- t.tests @ tests;
  (* a half-extended instance no longer matches [t.tests]: any failure
     takes the context out of service rather than leave it answering *)
  try
    let fault = Atomic.exchange add_tests_fault None in
    List.iteri
      (fun i test ->
        if fault = Some i then failwith "Incremental.add_tests: injected fault";
        Encode.Muxed.add_test t.inst test)
      tests
  with e ->
    retire t;
    raise e

let num_tests t = Encode.Muxed.num_tests t.inst

(* The carried corrections that still hold, and the first level of the
   level loop that can hold a new essential: [([], 1)] enumerates from
   scratch, a level above [k] needs no search.  Validity is per test
   (each copy has its own correction values), so a correction that was
   essential for the old tests and repairs every new test is essential
   for the grown set; every other essential of the grown set strictly
   contains an old essential that failed a new test. *)
let carry t ~max_solutions ~budget =
  let scratch = ([], 1) in
  match t.carried with
  | None -> scratch
  | Some _ when Sat.Budget.exhausted budget -> scratch
  | Some (sols, _) when List.length sols >= max_solutions -> scratch
  | Some (sols, n) when n = num_tests t -> (sols, t.k + 1)
  (* growth: a certified context re-proves every answer on the full
     test set; [check_sim] enumerates 2^|C| values per test *)
  | Some _ when t.certify || t.k > 16 -> scratch
  | Some (sols, n) ->
      let fresh = List.filteri (fun i _ -> i >= n) t.tests in
      Telemetry.instant t.obs ~payload:(List.length fresh)
        "incremental/revalidate";
      t.revalidated <- t.revalidated + List.length sols;
      let survivors, failed =
        List.partition (Validity.check_sim t.circuit fresh) sols
      in
      ( survivors,
        List.fold_left (fun m s -> min m (List.length s + 1)) (t.k + 1) failed
      )

(* jobs > 1: the live solver cannot be shared across domains, so the
   portfolio solves the accumulated workload on fresh per-worker
   instances ({!Bsat.diagnose}) and leaves the live instance untouched —
   the enumerated set is the same, the learned-clause reuse is not. *)
let solutions_portfolio ~max_solutions ~budget ~jobs t =
  let r =
    Bsat.diagnose ?force_zero:t.force_zero ~max_solutions ~budget
      ~certify:t.certify ~jobs ~k:t.k t.circuit t.tests
  in
  t.solver_calls <- t.solver_calls + r.Bsat.solver_calls;
  t.portfolio_checks <- t.portfolio_checks + r.Bsat.cert_checks;
  t.portfolio_failures <- t.portfolio_failures @ r.Bsat.cert_failures;
  (r.Bsat.solutions, r.Bsat.truncated)

(* Fig. 3's level loop on the live instance, from level [first] up,
   with the [survivors] already blocked and counted as found *)
let solutions_live ~max_solutions ~budget ~survivors ~first t =
  (* guard this enumeration's blocking clauses so the next call (after
     more tests arrived) starts from a clean solution space *)
  let active = Encode.Muxed.fresh_activation t.inst in
  List.iter (Encode.Muxed.block ~unless:active t.inst) survivors;
  let r =
    Enumerate.levels ~extra:[ active ] ~first
      ~found:(Atomic.make (List.length survivors))
      ~max_solutions ~budget ~k:t.k
      (Enumerate.muxed ~unless:active t.inst)
  in
  (* retire the guard permanently — through the instance's emit hook so
     the certification checker sees the unit clause too *)
  Encode.Muxed.assert_clause t.inst [ Sat.Lit.negate active ];
  t.solver_calls <- t.solver_calls + r.Enumerate.calls;
  (Solutions.canonical (survivors @ r.Enumerate.found), r.Enumerate.truncated)

let solutions ?(max_solutions = max_int) ?(budget = Sat.Budget.unlimited ())
    ?(jobs = 1) t =
  check_live t ~what:"solutions";
  let jobs = Par.clamp_jobs jobs in
  let survivors, first = carry t ~max_solutions ~budget in
  let sols, truncated =
    if jobs > 1 && first <= t.k then
      solutions_portfolio ~max_solutions ~budget ~jobs t
    else
      Telemetry.phase t.obs "incremental/solve"
        ~payload:(fun (s, _) -> List.length s)
      @@ fun () ->
      t.reused <- t.reused + List.length survivors;
      if first > t.k then (survivors, false)
      else solutions_live ~max_solutions ~budget ~survivors ~first t
  in
  t.last_truncated <- truncated;
  if not truncated then t.carried <- Some (sols, num_tests t);
  sols

let last_truncated t = t.last_truncated

let stats t = Sat.Solver.stats t.solver

let reused t = t.reused

let revalidated t = t.revalidated

let solver_calls t = t.solver_calls

let cert_checks t = t.portfolio_checks + Encode.Muxed.cert_checks t.inst

let cert_failures t =
  t.portfolio_failures @ Encode.Muxed.cert_failures t.inst
