type t = {
  solver : Sat.Solver.t;
  (* [None] in an uncertified k = 1 context: its level 1 is settled by
     simulation, so it never searches and builds no CNF *)
  inst : Encode.Muxed.t option;
  k : int;
  mutable obs : Obs.t option;
  circuit : Netlist.Circuit.t;
  certify : bool;
  mutable tests : Sim.Testgen.test list;  (* accumulated, in arrival order *)
  mutable retired : bool;
  (* the essential set of the last complete (untruncated) enumeration
     and the number of tests it was enumerated for *)
  mutable carried : (int list list * int) option;
}

type result = { outcome : Outcome.t; reused : int; revalidated : int }

let create ?obs ?(certify = false) ~k c tests =
  let solver = Sat.Solver.create () in
  Option.iter (Sat.Solver.attach_obs ~prefix:"incremental" solver) obs;
  let inst =
    if k = 1 && not certify then None
    else
      Some
        (Telemetry.phase obs "incremental/cnf" (fun () ->
             Encode.Muxed.build ~certify ~max_k:k solver c tests))
  in
  { solver; inst; k; obs; circuit = c; certify; tests; retired = false;
    carried = None }

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
        Option.iter (fun inst -> Encode.Muxed.add_test inst test) t.inst)
      tests
  with e ->
    retire t;
    raise e

let num_tests t = List.length t.tests

(* The carried corrections that still hold, the first level of the
   level loop that can hold a new essential, and how many carried
   corrections were re-checked: [([], 1, 0)] enumerates from scratch, a
   level above [k] needs no search.  Validity is per test
   (each copy has its own correction values), so a correction that was
   essential for the old tests and repairs every new test is essential
   for the grown set; every other essential of the grown set strictly
   contains an old essential that failed a new test. *)
let carry t ~max_solutions ~budget =
  let scratch = ([], 1, 0) in
  match t.carried with
  | None -> scratch
  | Some _ when Sat.Budget.exhausted budget -> scratch
  | Some (sols, _) when List.length sols >= max_solutions -> scratch
  | Some (sols, n) when n = num_tests t -> (sols, t.k + 1, 0)
  (* growth: a certified context re-proves every answer on the full
     test set; [check_sim] enumerates 2^|C| values per test *)
  | Some _ when t.certify || t.k > 16 -> scratch
  | Some (sols, n) ->
      let fresh = List.filteri (fun i _ -> i >= n) t.tests in
      Telemetry.instant t.obs ~payload:(List.length fresh)
        "incremental/revalidate";
      let survivors, failed =
        List.partition (Validity.check_sim t.circuit fresh) sols
      in
      ( survivors,
        List.fold_left (fun m s -> min m (List.length s + 1)) (t.k + 1) failed,
        List.length sols )

(* Fig. 3's level loop on the live instance, from level [first] up,
   with the [survivors] already blocked and counted as found *)
let solutions_live ~max_solutions ~budget ~survivors ~first t inst =
  (* guard this enumeration's blocking clauses so the next call (after
     more tests arrived) starts from a clean solution space *)
  let active = Encode.Muxed.fresh_activation inst in
  List.iter (Encode.Muxed.block ~unless:active inst) survivors;
  let r =
    Enumerate.levels ~extra:[ active ] ~first
      ~found:(ref (List.length survivors))
      ~max_solutions ~budget ~k:t.k
      (Enumerate.muxed ~unless:active inst)
  in
  (* retire the guard permanently — through the instance's emit hook so
     the certification checker sees the unit clause too *)
  Encode.Muxed.assert_clause inst [ Sat.Lit.negate active ];
  {
    Outcome.empty with
    solutions = Solutions.canonical (survivors @ r.Enumerate.found);
    truncated = r.Enumerate.truncated;
    solver_calls = r.Enumerate.calls;
  }

(* Level 1, the whole search of a k = 1 context, by simulation
   (Lemma 1): the singles, or the empty correction when no test fails.
   The first [max_solutions] of them, truncated once the cap is reached,
   as the level loop is *)
let solutions_sim ~max_solutions ~budget t =
  if Sat.Budget.exhausted budget then { Outcome.empty with truncated = true }
  else
    let all =
      if List.exists (Sim.Testgen.fails t.circuit) t.tests then
        List.map (fun g -> [ g ]) (Validity.singles t.circuit t.tests)
      else [ [] ]
    in
    {
      Outcome.empty with
      solutions = List.filteri (fun i _ -> i < max_solutions) all;
      truncated = List.compare_length_with all max_solutions >= 0;
    }

let cert_checks t = Option.fold ~none:0 ~some:Encode.Muxed.cert_checks t.inst

let cert_failures t =
  Option.fold ~none:[] ~some:Encode.Muxed.cert_failures t.inst

let solutions ?(max_solutions = max_int) ?(budget = Sat.Budget.unlimited ())
    t =
  check_live t ~what:"solutions";
  let t0 = Obs.Clock.wall () in
  let st0 = Sat.Solver.stats t.solver in
  let checks0 = cert_checks t in
  let failures0 = List.length (cert_failures t) in
  let survivors, first, revalidated = carry t ~max_solutions ~budget in
  let search f =
    Telemetry.phase t.obs "incremental/solve"
      ~payload:(fun (o, _) -> List.length o.Outcome.solutions)
    @@ fun () -> (f (), List.length survivors)
  in
  let outcome, reused =
    if first > t.k then
      search (fun () -> { Outcome.empty with solutions = survivors })
    else
      match t.inst with
      | None ->
          (* k = 1, so a search from level 1 carries nothing: the only
             carried correction that fails below level 2 is [[]], and it
             is then the whole carried set *)
          assert (survivors = []);
          search (fun () -> solutions_sim ~max_solutions ~budget t)
      | Some inst ->
          search (fun () ->
              solutions_live ~max_solutions ~budget ~survivors ~first t inst)
  in
  (* this call's share of the live solver's lifetime counters; [learned]
     is a gauge (clauses currently in the database), reported as-is *)
  let st = Sat.Solver.stats t.solver in
  let outcome =
    {
      outcome with
      stats = { (Sat.Solver.map2_stats ( - ) st st0) with learned = st.learned };
      cert_checks = outcome.cert_checks + cert_checks t - checks0;
      cert_failures =
        outcome.cert_failures
        @ List.filteri (fun i _ -> i >= failures0) (cert_failures t);
      all_time = Obs.Clock.wall () -. t0;
    }
  in
  if not outcome.truncated then
    t.carried <- Some (outcome.solutions, num_tests t);
  { outcome; reused; revalidated }

let stats t = Sat.Solver.stats t.solver
