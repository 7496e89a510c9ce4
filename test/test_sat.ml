(* Unit and property tests for the SAT substrate: literals, CNF/DIMACS,
   the reference DPLL solver and the CDCL solver (checked against each
   other on random formulas). *)

let lit = Alcotest.testable Sat.Lit.pp Sat.Lit.equal

(* ---------- Lit ---------- *)

let test_lit_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check int)
        "dimacs roundtrip" i
        (Sat.Lit.to_dimacs (Sat.Lit.of_dimacs i)))
    [ 1; -1; 5; -17; 42 ]

let test_lit_negate () =
  let l = Sat.Lit.pos 3 in
  Alcotest.check lit "double negation" l Sat.Lit.(negate (negate l));
  Alcotest.(check bool) "sign pos" true (Sat.Lit.sign l);
  Alcotest.(check bool) "sign neg" false Sat.Lit.(sign (negate l));
  Alcotest.(check int) "var kept" 3 Sat.Lit.(var (negate l))

let test_lit_zero_rejected () =
  Alcotest.check_raises "of_dimacs 0" (Invalid_argument "Lit.of_dimacs: zero")
    (fun () -> ignore (Sat.Lit.of_dimacs 0))

(* ---------- Cnf / DIMACS ---------- *)

let clause_of_ints = List.map Sat.Lit.of_dimacs

let cnf_of_lists lists =
  let f = Sat.Cnf.create () in
  List.iter (fun c -> Sat.Cnf.add_clause f (clause_of_ints c)) lists;
  f

let test_dimacs_roundtrip () =
  let f = cnf_of_lists [ [ 1; -2; 3 ]; [ -1 ]; [ 2; 3 ] ] in
  let f' = Sat.Cnf.of_dimacs (Sat.Cnf.to_dimacs f) in
  Alcotest.(check int) "vars" f.Sat.Cnf.num_vars f'.Sat.Cnf.num_vars;
  Alcotest.(check int) "clauses" (Sat.Cnf.clause_count f)
    (Sat.Cnf.clause_count f');
  let dim g =
    Sat.Cnf.clauses g |> List.map (List.map Sat.Lit.to_dimacs)
  in
  Alcotest.(check (list (list int))) "content" (dim f) (dim f')

let test_dimacs_comments () =
  let f = Sat.Cnf.of_dimacs "c a comment\np cnf 3 2\n1 -2 0\n3 0\n" in
  Alcotest.(check int) "vars" 3 f.Sat.Cnf.num_vars;
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.clause_count f)

let test_dimacs_whitespace () =
  (* tabs, carriage returns, clauses spanning lines, SATLIB "%" trailer *)
  let text = "c mixed\tws\r\np cnf 3\t2\r\n1\t-2\r\n3 0\n-1 3 0\r\n%\n0\n\n" in
  let f = Sat.Cnf.of_dimacs text in
  Alcotest.(check int) "vars" 3 f.Sat.Cnf.num_vars;
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.clause_count f);
  let dim = Sat.Cnf.clauses f |> List.map (List.map Sat.Lit.to_dimacs) in
  Alcotest.(check (list (list int)))
    "multi-line clause kept whole"
    [ [ 1; -2; 3 ]; [ -1; 3 ] ]
    dim

let test_dimacs_empty_clause () =
  let f = Sat.Cnf.of_dimacs "p cnf 2 2\n1 2 0\n0\n" in
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.clause_count f);
  Alcotest.(check bool) "empty clause present" true
    (List.mem [] (Sat.Cnf.clauses f));
  (* the empty clause survives a round-trip *)
  let f' = Sat.Cnf.of_dimacs (Sat.Cnf.to_dimacs f) in
  Alcotest.(check bool) "round-trips" true (List.mem [] (Sat.Cnf.clauses f'));
  (* and makes a solver permanently unsat *)
  let s = Sat.Solver.create () in
  Sat.Solver.add_cnf s f';
  Alcotest.(check bool) "solver unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_cnf_eval () =
  let f = cnf_of_lists [ [ 1; 2 ]; [ -1; 2 ] ] in
  Alcotest.(check bool) "sat by [_;T]" true
    (Sat.Cnf.eval f [| false; true |]);
  Alcotest.(check bool) "unsat by [T;F]" false
    (Sat.Cnf.eval f [| true; false |])

(* ---------- DPLL oracle ---------- *)

let test_dpll_simple_sat () =
  let f = cnf_of_lists [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ] in
  match Sat.Dpll.solve f with
  | Sat.Dpll.Sat m -> Alcotest.(check bool) "model valid" true (Sat.Cnf.eval f m)
  | Sat.Dpll.Unsat -> Alcotest.fail "expected SAT"

let test_dpll_simple_unsat () =
  let f = cnf_of_lists [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ] in
  match Sat.Dpll.solve f with
  | Sat.Dpll.Sat _ -> Alcotest.fail "expected UNSAT"
  | Sat.Dpll.Unsat -> ()

let test_dpll_counting () =
  (* x1 xor x2: two models *)
  let f = cnf_of_lists [ [ 1; 2 ]; [ -1; -2 ] ] in
  Alcotest.(check int) "xor has 2 models" 2 (Sat.Dpll.count_models f);
  (* projection onto var 0: both values possible *)
  Alcotest.(check int) "projected" 2 (Sat.Dpll.count_models ~over:[ 0 ] f)

(* ---------- CDCL basic behaviour ---------- *)

let solver_of_lists lists =
  let s = Sat.Solver.create () in
  List.iter (fun c -> Sat.Solver.add_clause s (clause_of_ints c)) lists;
  s

let check_sat expectation lists =
  let s = solver_of_lists lists in
  let result = Sat.Solver.solve s in
  (match (expectation, result) with
  | true, Sat.Solver.Sat | false, Sat.Solver.Unsat -> ()
  | true, Sat.Solver.Unsat -> Alcotest.fail "expected SAT, got UNSAT"
  | false, Sat.Solver.Sat -> Alcotest.fail "expected UNSAT, got SAT");
  s

let test_cdcl_empty () = ignore (check_sat true [])

let test_cdcl_unit () =
  let s = check_sat true [ [ 1 ]; [ -2 ] ] in
  Alcotest.(check bool) "v0 true" true (Sat.Solver.value s 0);
  Alcotest.(check bool) "v1 false" false (Sat.Solver.value s 1)

let test_cdcl_empty_clause () = ignore (check_sat false [ [] ])

let test_cdcl_contradiction () = ignore (check_sat false [ [ 1 ]; [ -1 ] ])

let test_cdcl_model_satisfies () =
  let lists = [ [ 1; 2; 3 ]; [ -1; -2 ]; [ -2; -3 ]; [ 2; 3 ]; [ -1; -3 ] ] in
  let s = check_sat true lists in
  let f = cnf_of_lists lists in
  Alcotest.(check bool) "model satisfies" true
    (Sat.Cnf.eval f (Sat.Solver.model s))

let test_cdcl_php () =
  (* pigeonhole: 4 pigeons, 3 holes -> UNSAT and requires real search *)
  let var p h = (p * 3) + h + 1 in
  let at_least = List.init 4 (fun p -> List.init 3 (fun h -> var p h)) in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init 4 Fun.id))
          (List.init 4 Fun.id))
      (List.init 3 Fun.id)
  in
  ignore (check_sat false (at_least @ at_most))

let test_cdcl_assumptions () =
  let s = solver_of_lists [ [ 1; 2 ]; [ -1; 2 ] ] in
  let a1 = Sat.Lit.of_dimacs (-2) in
  Alcotest.(check bool) "unsat under -2" true
    (Sat.Solver.solve ~assumptions:[ a1 ] s = Sat.Solver.Unsat);
  Alcotest.(check bool) "sat without assumptions" true
    (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "sat under 2" true
    (Sat.Solver.solve ~assumptions:[ Sat.Lit.of_dimacs 2 ] s = Sat.Solver.Sat)

let test_cdcl_incremental_blocking () =
  (* enumerate all 4 models of (x1 or x2) over vars 1,2,3-free=absent *)
  let s = solver_of_lists [ [ 1; 2 ] ] in
  let rec enumerate acc =
    match Sat.Solver.solve s with
    | Sat.Solver.Unsat -> List.rev acc
    | Sat.Solver.Sat ->
        let m = (Sat.Solver.value s 0, Sat.Solver.value s 1) in
        let block =
          [ (if fst m then -1 else 1); (if snd m then -2 else 2) ]
        in
        Sat.Solver.add_clause s (clause_of_ints block);
        enumerate (m :: acc)
  in
  let models = enumerate [] in
  Alcotest.(check int) "three models of x1 | x2" 3 (List.length models);
  let uniq = List.sort_uniq compare models in
  Alcotest.(check int) "no duplicates" 3 (List.length uniq)

let test_cdcl_stats_move () =
  let s = solver_of_lists [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2; 3 ] ] in
  ignore (Sat.Solver.solve s);
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "did some propagations" true (st.Sat.Solver.propagations > 0)

(* ---------- budgeted solving ---------- *)

(* pigeonhole with p pigeons and h holes: UNSAT when p > h, and hard
   enough that a small conflict budget is exhausted mid-search *)
let php_solver p h =
  let s = Sat.Solver.create () in
  let var pi hi = Sat.Lit.pos ((pi * h) + hi) in
  for pi = 0 to p - 1 do
    Sat.Solver.add_clause s (List.init h (fun hi -> var pi hi))
  done;
  for hi = 0 to h - 1 do
    for p1 = 0 to p - 1 do
      for p2 = p1 + 1 to p - 1 do
        Sat.Solver.add_clause s
          [ Sat.Lit.negate (var p1 hi); Sat.Lit.negate (var p2 hi) ]
      done
    done
  done;
  s

let test_budget_basics () =
  let b = Sat.Budget.create ~conflicts:10 () in
  Alcotest.(check bool) "fresh not exhausted" false (Sat.Budget.exhausted b);
  Sat.Budget.charge b ~conflicts:4 ~propagations:1000;
  Alcotest.(check int) "6 left" 6 (Sat.Budget.conflicts_left b);
  Sat.Budget.charge b ~conflicts:100 ~propagations:0;
  Alcotest.(check int) "floored at 0" 0 (Sat.Budget.conflicts_left b);
  Alcotest.(check bool) "exhausted" true (Sat.Budget.exhausted b);
  let u = Sat.Budget.unlimited () in
  Sat.Budget.charge u ~conflicts:max_int ~propagations:max_int;
  Alcotest.(check bool) "unlimited never exhausts" false
    (Sat.Budget.exhausted u)

let test_budget_unknown () =
  let s = php_solver 7 6 in
  let budget = Sat.Budget.create ~conflicts:5 () in
  (match Sat.Solver.solve_limited ~budget s with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Solved _ -> Alcotest.fail "5 conflicts must not settle php7/6");
  Alcotest.(check bool) "budget spent" true (Sat.Budget.exhausted budget);
  let st = Sat.Solver.stats s in
  Alcotest.(check int) "stopped at the budget" 5 st.Sat.Solver.conflicts;
  (* the solver survives an Unknown: an unlimited call finishes the job *)
  Alcotest.(check bool) "still solvable" true
    (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_budget_zero () =
  (* boundary: a zero allowance is born exhausted, and a budgeted call
     must return immediately-truncated without spending any effort *)
  let zero_sec = Sat.Budget.create ~seconds:0.0 () in
  Alcotest.(check bool) "0s budget born exhausted" true
    (Sat.Budget.exhausted zero_sec);
  let s = php_solver 7 6 in
  (match Sat.Solver.solve_limited ~budget:zero_sec s with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Solved _ -> Alcotest.fail "zero-second budget must truncate");
  let st = Sat.Solver.stats s in
  Alcotest.(check int) "no conflicts spent" 0 st.Sat.Solver.conflicts;
  Alcotest.(check int) "no decisions spent" 0 st.Sat.Solver.decisions;
  let zero_conf = Sat.Budget.create ~conflicts:0 () in
  Alcotest.(check bool) "0-conflict budget born exhausted" true
    (Sat.Budget.exhausted zero_conf);
  (match Sat.Solver.solve_limited ~budget:zero_conf (php_solver 7 6) with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Solved _ -> Alcotest.fail "zero-conflict budget must truncate");
  (* the solver survives the immediate truncation *)
  Alcotest.(check bool) "still solvable afterwards" true
    (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_budget_determinism () =
  let run () =
    let s = php_solver 8 7 in
    let budget = Sat.Budget.create ~conflicts:50 () in
    let r = Sat.Solver.solve_limited ~budget s in
    let st = Sat.Solver.stats s in
    (r, st.Sat.Solver.decisions, st.Sat.Solver.propagations,
     st.Sat.Solver.conflicts, st.Sat.Solver.learned_total)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same outcome and counters" true (a = b)

let test_budget_charged_across_calls () =
  (* one shared budget drains over successive calls on easy instances *)
  let budget = Sat.Budget.create ~propagations:1_000_000 () in
  let left0 = Sat.Budget.propagations_left budget in
  let s = solver_of_lists [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ] in
  (match Sat.Solver.solve_limited ~budget s with
  | Sat.Solver.Solved Sat.Solver.Sat -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "propagations were charged" true
    (Sat.Budget.propagations_left budget < left0)

let test_budget_renewed () =
  (* a budget created at enqueue time and held idle must not charge the
     queue wait against solve time: [renewed] re-anchors the wall-clock
     window at dispatch while keeping the remaining counters *)
  let b = Sat.Budget.create ~conflicts:10 ~seconds:10.0 () in
  Sat.Budget.charge b ~conflicts:4 ~propagations:0;
  Unix.sleepf 0.05;
  let r = Sat.Budget.renewed b in
  Alcotest.(check int) "counters carried over" 6
    (Sat.Budget.conflicts_left r);
  let slack = Sat.Budget.deadline r -. Sat.Budget.deadline b in
  Alcotest.(check bool) "idle time restored to the window" true
    (slack >= 0.05);
  let full = Sat.Budget.deadline r -. Obs.Clock.wall () in
  Alcotest.(check bool) "renewed window is the full allowance" true
    (full > 9.5 && full <= 10.0);
  (* renewal survives clone: the relative allowance travels with the
     budget, so a cloned-then-renewed budget also restarts at full *)
  let rc = Sat.Budget.renewed (Sat.Budget.clone b) in
  Alcotest.(check bool) "clone keeps the allowance" true
    (Sat.Budget.deadline rc -. Obs.Clock.wall () > 9.5);
  (* unlimited budgets stay unlimited *)
  let u = Sat.Budget.renewed (Sat.Budget.unlimited ()) in
  Alcotest.(check bool) "unlimited stays unlimited" true
    (Sat.Budget.is_unlimited u)

let test_budget_deadline_bounds_inprocessing () =
  (* every 4-subset of 30 variables as a positive clause: no clause
     subsumes another, but each literal occurs in 3,654 clauses, so one
     backward-subsumption pass makes ~10^8 candidate visits (seconds).
     The first solve runs that round before any search; under a short
     deadline it must give up within the deadline plus one polling
     slice (the margin below absorbs scheduling noise) *)
  let n = 30 in
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_vars s n;
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      for c = b + 1 to n - 1 do
        for d = c + 1 to n - 1 do
          Sat.Solver.add_clause s (List.map Sat.Lit.pos [ a; b; c; d ])
        done
      done
    done
  done;
  let seconds = 0.05 in
  let t0 = Obs.Clock.wall () in
  let r =
    Sat.Solver.solve_limited ~budget:(Sat.Budget.create ~seconds ()) s
  in
  let elapsed = Obs.Clock.wall () -. t0 in
  Alcotest.(check bool) "the deadline cuts the round" true
    (r = Sat.Solver.Unknown);
  Alcotest.(check bool)
    (Printf.sprintf "returned after %.3f s" elapsed)
    true
    (elapsed < seconds +. 0.25);
  (* the solver stays usable: an unlimited call answers *)
  Alcotest.(check bool) "sat afterwards" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

let test_stats_learned_accounting () =
  let s = php_solver 7 6 in
  ignore (Sat.Solver.solve s);
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "learned something" true
    (st.Sat.Solver.learned_total > 0);
  Alcotest.(check bool) "gauge + deleted <= total" true
    (st.Sat.Solver.learned + st.Sat.Solver.deleted
     <= st.Sat.Solver.learned_total);
  Alcotest.(check bool) "deleted non-negative" true
    (st.Sat.Solver.deleted >= 0)

(* ---------- assumption edge cases and failed-assumption cores ---------- *)

let test_assumptions_already_true () =
  (* assumptions already forced at root open dummy levels; the answer and
     the model must be unaffected, repeated literals included *)
  let s = solver_of_lists [ [ 1 ]; [ -1; 2 ] ] in
  let a = Sat.Lit.pos 0 in
  Alcotest.(check bool) "sat under redundant assumptions" true
    (Sat.Solver.solve ~assumptions:[ a; a; Sat.Lit.pos 1 ] s
    = Sat.Solver.Sat);
  Alcotest.(check bool) "v1 true" true (Sat.Solver.value s 1)

let test_assumption_root_false_core () =
  (* a root-false assumption is an assumption failure, not global unsat *)
  let s = solver_of_lists [ [ 1 ] ] in
  Alcotest.(check bool) "unsat under -1" true
    (Sat.Solver.solve ~assumptions:[ Sat.Lit.neg_of 0 ] s = Sat.Solver.Unsat);
  Alcotest.(check (list int)) "core is the assumption" [ -1 ]
    (List.map Sat.Lit.to_dimacs (Sat.Solver.unsat_core s));
  (* the solver is not poisoned: ok stays true *)
  Alcotest.(check bool) "still sat without assumptions" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

let test_assumption_core_via_propagation () =
  (* x1 -> x2; assuming x1 and -x2 fails, and both are charged *)
  let s = solver_of_lists [ [ -1; 2 ] ] in
  let assumptions = [ Sat.Lit.pos 0; Sat.Lit.neg_of 1 ] in
  Alcotest.(check bool) "unsat" true
    (Sat.Solver.solve ~assumptions s = Sat.Solver.Unsat);
  let core =
    List.sort compare (List.map Sat.Lit.to_dimacs (Sat.Solver.unsat_core s))
  in
  Alcotest.(check (list int)) "core = both assumptions" [ -2; 1 ] core

let test_assumption_core_global () =
  (* a contradiction independent of the assumptions yields the empty core *)
  let s = solver_of_lists [ [ 1 ]; [ -1 ] ] in
  Alcotest.(check bool) "unsat" true
    (Sat.Solver.solve ~assumptions:[ Sat.Lit.pos 1 ] s = Sat.Solver.Unsat);
  Alcotest.(check (list int)) "empty core" []
    (List.map Sat.Lit.to_dimacs (Sat.Solver.unsat_core s))

let test_unsat_core_requires_unsat () =
  let s = solver_of_lists [ [ 1 ] ] in
  ignore (Sat.Solver.solve s);
  Alcotest.check_raises "no core after Sat"
    (Invalid_argument "Solver.unsat_core: last answer was not Unsat")
    (fun () -> ignore (Sat.Solver.unsat_core s))

let test_shrink_core_redundant () =
  (* crafted so the raw core is NOT minimal: assuming b first propagates
     x through (-b | x), then assuming a falsifies (-a | -x), so
     analyzeFinal charges BOTH assumptions — but a alone already
     conflicts through (-a | y), (-y | x) and (-a | -x).  The known
     minimum is {a}.  The inprocessing round before the first search
     must not derive the unit -a, or the raw core is {a} already: a
     direct (-a | x) would strengthen (-a | -x) to -a by
     self-subsumption, and bounded variable elimination would resolve
     x away.  The detour through y avoids the first; seven padding
     clauses (x | p), each p pure and eliminated after x is passed
     over, give x more than eight positive occurrences and so keep it. *)
  let padding = List.init 7 (fun i -> [ 3; 5 + i ]) in
  let s =
    solver_of_lists ([ [ -2; 3 ]; [ -1; -3 ]; [ -1; 4 ]; [ -4; 3 ] ] @ padding)
  in
  let b = Sat.Lit.of_dimacs 2 and a = Sat.Lit.of_dimacs 1 in
  Alcotest.(check bool) "unsat under [b; a]" true
    (Sat.Solver.solve ~assumptions:[ b; a ] s = Sat.Solver.Unsat);
  let raw =
    List.sort compare (List.map Sat.Lit.to_dimacs (Sat.Solver.unsat_core s))
  in
  Alcotest.(check (list int)) "raw core keeps the redundant b" [ 1; 2 ] raw;
  let shrunk =
    Sat.Solver.shrink_core s [ a; b ]
    |> List.map Sat.Lit.to_dimacs |> List.sort compare
  in
  Alcotest.(check (list int)) "shrinks to the known minimum {a}" [ 1 ] shrunk;
  (* the other deletion order converges to the same minimum *)
  let shrunk' =
    Sat.Solver.shrink_core s [ b; a ]
    |> List.map Sat.Lit.to_dimacs |> List.sort compare
  in
  Alcotest.(check (list int)) "order-independent minimum" [ 1 ] shrunk'

(* ---------- activity seeding ---------- *)

let test_bump_priority_rescale () =
  (* regression: external bumps past 1e100 must rescale like var_bump,
     not run off to infinity *)
  let s = solver_of_lists [ [ 1; 2 ]; [ -1; 2 ] ] in
  for _ = 1 to 4 do
    Sat.Solver.bump_priority s 0 1e308
  done;
  Alcotest.(check bool) "activity stays finite" true
    (Float.is_finite (Sat.Solver.activity_of s 0));
  (* relative order with an unbumped variable survives the rescale *)
  Alcotest.(check bool) "bumped var dominates" true
    (Sat.Solver.activity_of s 0 > Sat.Solver.activity_of s 1);
  Alcotest.(check bool) "still solves" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

(* ---------- DRUP proofs and the independent checker ---------- *)

let php_lists p h =
  let var pi hi = (pi * h) + hi + 1 in
  let at_least = List.init p (fun pi -> List.init h (fun hi -> var pi hi)) in
  let at_most =
    List.concat_map
      (fun hi ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ -var p1 hi; -var p2 hi ] else None)
              (List.init p Fun.id))
          (List.init p Fun.id))
      (List.init h Fun.id)
  in
  at_least @ at_most

let solve_with_proof lists assumptions =
  let s = Sat.Solver.create () in
  let proof = Sat.Proof.in_memory () in
  Sat.Solver.set_proof s (Some proof);
  List.iter (fun c -> Sat.Solver.add_clause s (clause_of_ints c)) lists;
  let r = Sat.Solver.solve ~assumptions s in
  (r, proof)

let test_proof_php_checked () =
  let lists = php_lists 5 4 in
  let r, proof = solve_with_proof lists [] in
  Alcotest.(check bool) "php 5/4 unsat" true (r = Sat.Solver.Unsat);
  Alcotest.(check bool) "proof has steps" true (Sat.Proof.num_steps proof > 0);
  match Sat.Drup_check.check_unsat (cnf_of_lists lists) (Sat.Proof.steps proof) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("checker rejected the proof: " ^ msg)

let test_proof_assumption_core_checked () =
  let lists = [ [ -1; 2 ]; [ -2; 3 ] ] in
  let assumptions = [ Sat.Lit.pos 0; Sat.Lit.neg_of 2 ] in
  let r, proof = solve_with_proof lists assumptions in
  Alcotest.(check bool) "unsat under assumptions" true (r = Sat.Solver.Unsat);
  match
    Sat.Drup_check.check_unsat ~assumptions (cnf_of_lists lists)
      (Sat.Proof.steps proof)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("checker rejected the core proof: " ^ msg)

let test_proof_deterministic () =
  let run () =
    let _, proof = solve_with_proof (php_lists 5 4) [] in
    Sat.Proof.to_string proof
  in
  Alcotest.(check string) "byte-identical proofs" (run ()) (run ())

let test_proof_steps_from () =
  (* the drain accessor: every suffix, the empty one included *)
  let _, proof = solve_with_proof (php_lists 4 3) [] in
  let all = Sat.Proof.steps proof in
  let n = Array.length all in
  Alcotest.(check int) "all steps retained" (Sat.Proof.num_steps proof) n;
  for i = 0 to n do
    Alcotest.(check bool)
      (Printf.sprintf "suffix from %d" i)
      true
      (Sat.Proof.steps_from proof i = Array.sub all i (n - i))
  done

let test_proof_mutations_rejected () =
  let lists = php_lists 4 3 in
  let cnf () = cnf_of_lists lists in
  let _, proof = solve_with_proof lists [] in
  let steps = Sat.Proof.steps proof in
  (* an empty proof certifies nothing *)
  (match Sat.Drup_check.check_unsat (cnf ()) [||] with
  | Ok () -> Alcotest.fail "empty proof accepted"
  | Error _ -> ());
  (* a unit over an unconstrained fresh variable is not RUP: inserting
     it anywhere must be rejected (unlike dropping a literal, which can
     leave a still-valid stronger clause) *)
  let rogue = Sat.Proof.Add [ Sat.Lit.pos 1000 ] in
  let mutated = Array.append [| rogue |] steps in
  (match Sat.Drup_check.check_unsat (cnf ()) mutated with
  | Ok () -> Alcotest.fail "non-RUP insertion accepted"
  | Error _ -> ());
  (* deleting a clause that was never added must be rejected *)
  let mutated =
    Array.append [| Sat.Proof.Delete (clause_of_ints [ 7; 9 ]) |] steps
  in
  match Sat.Drup_check.check_unsat (cnf ()) mutated with
  | Ok () -> Alcotest.fail "bogus deletion accepted"
  | Error _ -> ()

let test_checker_rup_basics () =
  let t = Sat.Drup_check.create () in
  Sat.Drup_check.add_clause t (clause_of_ints [ 1; 2 ]);
  Sat.Drup_check.add_clause t (clause_of_ints [ -1; 2 ]);
  Alcotest.(check bool) "[2] is RUP" true
    (Sat.Drup_check.check_rup t (clause_of_ints [ 2 ]));
  Alcotest.(check bool) "[1] is not RUP" false
    (Sat.Drup_check.check_rup t (clause_of_ints [ 1 ]));
  Alcotest.(check int) "two live clauses" 2 (Sat.Drup_check.num_clauses t)

let test_checker_model_ok () =
  let lists = [ [ 1; 2; 3 ]; [ -1; -2 ]; [ 2; 3 ]; [ -3; 1 ] ] in
  let s = solver_of_lists lists in
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  let t = Sat.Drup_check.create () in
  Sat.Drup_check.add_cnf t (cnf_of_lists lists);
  Alcotest.(check bool) "model accepted" true
    (Sat.Drup_check.model_ok t (Sat.Solver.value s));
  Alcotest.(check bool) "all-false rejected" false
    (Sat.Drup_check.model_ok t (fun _ -> false))

(* Incremental model checks: the named mutants.  Each model is an array
   read through [fun v -> m.(v)]; variables are DIMACS-numbered in the
   clauses and 0-based in the arrays. *)
let model_ok_of t ?assumptions m =
  Sat.Drup_check.model_ok ?assumptions t (fun v -> m.(v))

let checker_of lists =
  let t = Sat.Drup_check.create () in
  List.iter (fun c -> Sat.Drup_check.add_clause t (clause_of_ints c)) lists;
  t

let test_model_ok_witness_flipped () =
  (* (1 2) is witnessed by 1 alone; the other clauses keep true
     literals when x1 flips, so only the flipped witness can catch it *)
  let t = checker_of [ [ 1; 2 ]; [ 3; 1 ]; [ -2; 3 ]; [ -1; 3 ] ] in
  Alcotest.(check bool) "first model" true
    (model_ok_of t [| true; false; true |]);
  Alcotest.(check bool) "witness flipped, clause falsified" false
    (model_ok_of t [| false; false; true |]);
  (* a flip that another literal covers is re-witnessed, not failed *)
  let t = checker_of [ [ 1; 2 ]; [ 3 ] ] in
  Alcotest.(check bool) "both true" true
    (model_ok_of t [| true; true; true |]);
  Alcotest.(check bool) "witness flipped, clause still true" true
    (model_ok_of t [| false; true; true |])

let test_model_ok_clause_since_check () =
  let t = checker_of [ [ 1; 2 ] ] in
  let m = [| true; false |] in
  Alcotest.(check bool) "model holds" true (model_ok_of t m);
  (* no variable changes, but a new input clause is false *)
  Sat.Drup_check.add_clause t (clause_of_ints [ -1; 2 ]);
  Alcotest.(check bool) "clause added since the check" false
    (model_ok_of t m);
  (* a derived clause is not model-checked; an input over a new
     variable is *)
  let t = checker_of [ [ 1; 2 ] ] in
  Alcotest.(check bool) "model holds" true (model_ok_of t m);
  (match
     Sat.Drup_check.check_step t (Sat.Proof.Add (clause_of_ints [ 1; 2; -3 ]))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "derived clause ignored" true
    (model_ok_of t [| true; false; true |]);
  Sat.Drup_check.add_clause t (clause_of_ints [ -3 ]);
  Alcotest.(check bool) "new input over a new variable" false
    (model_ok_of t [| true; false; true |])

let test_model_ok_after_failure () =
  (* (1 2) and (1 3) are both witnessed by 1.  Dropping x1 fails on
     the first clause of its list before the other is re-witnessed.  The
     next model flips only x2: (1 2) holds again and (1 3) stays false,
     in no list of a literal that model made false, so only
     re-witnessing every clause after the failure catches it *)
  let t = checker_of [ [ 1; 2 ]; [ 1; 3 ] ] in
  Alcotest.(check bool) "x1 covers both" true
    (model_ok_of t [| true; false; false |]);
  Alcotest.(check bool) "x1 dropped" false
    (model_ok_of t [| false; false; false |]);
  Alcotest.(check bool) "right after the failure" false
    (model_ok_of t [| false; true; false |]);
  Alcotest.(check bool) "then a model" true
    (model_ok_of t [| false; true; true |]);
  (* a failed assumption fails the check too; the clauses still hold *)
  Alcotest.(check bool) "failed assumption" false
    (model_ok_of t ~assumptions:[ Sat.Lit.pos 0 ] [| false; true; true |]);
  Alcotest.(check bool) "after a failed assumption" true
    (model_ok_of t ~assumptions:[ Sat.Lit.neg_of 0 ] [| false; true; true |])

let test_checker_ghost_unit_rejected () =
  (* regression: deleting a unit clause must retract the root-trail
     literal it propagated.  Before the strict-deletion fix the literal
     survived as a ghost of the deleted clause, and any clause mentioning
     it passed check_rup forever after. *)
  let t = Sat.Drup_check.create () in
  Sat.Drup_check.add_clause t (clause_of_ints [ 1 ]);
  Sat.Drup_check.add_clause t (clause_of_ints [ -1; 2 ]);
  Alcotest.(check bool) "[2] RUP while the unit lives" true
    (Sat.Drup_check.check_rup t (clause_of_ints [ 2 ]));
  (match
     Sat.Drup_check.check_step t (Sat.Proof.Delete (clause_of_ints [ 1 ]))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "[2] not RUP against the ghost" false
    (Sat.Drup_check.check_rup t (clause_of_ints [ 2 ]));
  Alcotest.(check bool) "[1] not RUP either" false
    (Sat.Drup_check.check_rup t (clause_of_ints [ 1 ]));
  (* end to end: a hand-crafted proof that deletes the unit and then
     RUP-checks against its ghost literal must be rejected, in both
     checking modes *)
  let cnf () = cnf_of_lists [ [ 1 ]; [ -1; 2 ] ] in
  let steps =
    [|
      Sat.Proof.Delete (clause_of_ints [ 1 ]);
      Sat.Proof.Add (clause_of_ints [ 2 ]);
    |]
  in
  let assumptions = [ Sat.Lit.neg_of 1 ] in
  (match Sat.Drup_check.check_unsat ~assumptions (cnf ()) steps with
  | Ok () -> Alcotest.fail "ghost-literal proof accepted (forward)"
  | Error msg ->
      Alcotest.(check bool)
        ("rejected at the Add step: " ^ msg)
        true
        (String.length msg >= 6 && String.sub msg 0 6 = "step 2"));
  match
    Sat.Drup_check.check_unsat ~mode:Sat.Drup_check.Backward ~assumptions
      (cnf ()) steps
  with
  | Ok () -> Alcotest.fail "ghost-literal proof accepted (backward)"
  | Error _ -> ()

let test_checker_core_must_survive () =
  (* the establishing core clause must hold against the FINAL clause
     set: deriving it and then deleting every live copy leaves the
     conclusion unsupported *)
  let cnf () = cnf_of_lists [ [ -1; -2 ] ] in
  let assumptions = [ Sat.Lit.pos 0; Sat.Lit.pos 1 ] in
  let core = clause_of_ints [ -1; -2 ] in
  (* deriving the core and keeping a live copy is fine (the derived copy
     is deleted, the input copy survives) *)
  let ok_steps = [| Sat.Proof.Add core; Sat.Proof.Delete core |] in
  (match Sat.Drup_check.check_unsat ~assumptions (cnf ()) ok_steps with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("surviving core rejected: " ^ m));
  (* deleting the input copy too removes every clause backing the core *)
  let bad_steps =
    [|
      Sat.Proof.Add core; Sat.Proof.Delete core; Sat.Proof.Delete core;
    |]
  in
  (match Sat.Drup_check.check_unsat ~assumptions (cnf ()) bad_steps with
  | Ok () -> Alcotest.fail "vanished core accepted (forward)"
  | Error _ -> ());
  match
    Sat.Drup_check.check_unsat ~mode:Sat.Drup_check.Backward ~assumptions
      (cnf ()) bad_steps
  with
  | Ok () -> Alcotest.fail "vanished core accepted (backward)"
  | Error _ -> ()

let test_checker_contradictory_assumptions () =
  (* the solver's core for assumptions [-4; 4; 7] is the pair [-4; 4],
     whose logged core clause is the tautology 4 -4: the conclusion holds
     without it, in either mode, while every step is still checked *)
  let lists =
    [ [ 7; -6 ]; [ -6; -1 ]; [ -8; 2 ]; [ -3; -2 ]; [ 6; -6 ]; [ -7; -1; 7 ] ]
  in
  let r, proof = solve_with_proof lists (clause_of_ints [ -4; 4; 7 ]) in
  Alcotest.(check bool) "unsat" true (r = Sat.Solver.Unsat);
  let steps = Sat.Proof.steps proof in
  let check ?(steps = steps) mode assumptions =
    Sat.Drup_check.check_unsat ~mode ~assumptions (cnf_of_lists lists) steps
  in
  List.iter
    (fun mode ->
      List.iter
        (fun a ->
          match check mode (clause_of_ints a) with
          | Ok () -> ()
          | Error m -> Alcotest.fail ("contradictory core rejected: " ^ m))
        [ [ -4; 4 ]; [ -4; 4; 7 ] ])
    [ Sat.Drup_check.Forward; Sat.Drup_check.Backward ];
  let rogue = Array.append [| Sat.Proof.Add (clause_of_ints [ 9 ]) |] steps in
  Alcotest.(check bool) "an unjustified step is still rejected" true
    (check ~steps:rogue Sat.Drup_check.Forward (clause_of_ints [ -4; 4 ])
    <> Ok ());
  let t = Sat.Drup_check.create () in
  List.iter (fun c -> Sat.Drup_check.add_clause t (clause_of_ints c)) lists;
  Alcotest.(check bool) "concludes" true
    (Sat.Drup_check.concludes t ~assumptions:(clause_of_ints [ 4; -4 ]) [||])

(* ---------- inprocessing ---------- *)

let stats_of s = Sat.Solver.stats s

let replay_proof_incrementally lists proof =
  (* feed the inputs and then every proof step to a fresh checker; any
     rejected step fails the test *)
  let t = Sat.Drup_check.create () in
  List.iter (fun c -> Sat.Drup_check.add_clause t (clause_of_ints c)) lists;
  Array.iteri
    (fun i st ->
      match Sat.Drup_check.check_step t st with
      | Ok () -> ()
      | Error m -> Alcotest.fail (Printf.sprintf "step %d rejected: %s" i m))
    (Sat.Proof.steps proof);
  t

let test_simplify_subsumption () =
  let lists = [ [ 1; 2 ]; [ 1; 2; 3 ]; [ -3; 1 ] ] in
  let s = Sat.Solver.create () in
  let proof = Sat.Proof.in_memory () in
  Sat.Solver.set_proof s (Some proof);
  List.iter (fun c -> Sat.Solver.add_clause s (clause_of_ints c)) lists;
  Sat.Solver.simplify s;
  Alcotest.(check bool) "subsumed something" true
    ((stats_of s).Sat.Solver.subsumed >= 1);
  Alcotest.(check bool) "still sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "model satisfies the original formula" true
    (Sat.Cnf.eval (cnf_of_lists lists) (Sat.Solver.model s));
  ignore (replay_proof_incrementally lists proof)

let test_simplify_strengthen () =
  (* {1,2} self-subsumes {-1,2,3} down to {2,3} *)
  let lists = [ [ 1; 2 ]; [ -1; 2; 3 ]; [ -2; 4 ] ] in
  let s = Sat.Solver.create () in
  let proof = Sat.Proof.in_memory () in
  Sat.Solver.set_proof s (Some proof);
  List.iter (fun c -> Sat.Solver.add_clause s (clause_of_ints c)) lists;
  Sat.Solver.simplify s;
  Alcotest.(check bool) "strengthened something" true
    ((stats_of s).Sat.Solver.strengthened >= 1);
  Alcotest.(check bool) "still sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "model satisfies the original formula" true
    (Sat.Cnf.eval (cnf_of_lists lists) (Sat.Solver.model s));
  ignore (replay_proof_incrementally lists proof)

let test_simplify_bve_model_extension () =
  (* var 1 has one positive and one negative occurrence: a textbook BVE
     target.  The model of the simplified instance must be extended back
     over the eliminated variable. *)
  let lists = [ [ 1; 2 ]; [ -1; 3 ]; [ 2; -3 ]; [ -2; 3 ] ] in
  let s = Sat.Solver.create () in
  let proof = Sat.Proof.in_memory () in
  Sat.Solver.set_proof s (Some proof);
  List.iter (fun c -> Sat.Solver.add_clause s (clause_of_ints c)) lists;
  Sat.Solver.simplify s;
  Alcotest.(check bool) "eliminated something" true
    ((stats_of s).Sat.Solver.eliminated >= 1);
  Alcotest.(check bool) "still sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  (* the model is completed lazily: single reads (active variables
     first), a later [simplify] and the full model all agree *)
  let n = Sat.Solver.num_vars s in
  let reads = Array.init n (fun i -> Sat.Solver.value s (n - 1 - i)) in
  Sat.Solver.simplify s;
  let full = Sat.Solver.model s in
  Alcotest.(check (array bool)) "reads = model"
    (Array.init n (fun v -> full.(n - 1 - v)))
    reads;
  Alcotest.(check bool) "model covers the eliminated variables" true
    (Sat.Cnf.eval (cnf_of_lists lists) full);
  ignore (replay_proof_incrementally lists proof)

let test_simplify_restore_on_demand () =
  (* an eliminated variable reappearing in a new clause or an assumption
     is restored transparently *)
  let mk () =
    let s = Sat.Solver.create () in
    List.iter
      (fun c -> Sat.Solver.add_clause s (clause_of_ints c))
      [ [ 1; 2 ]; [ -1; 3 ] ];
    Sat.Solver.simplify s;
    s
  in
  (* restore via a new clause: the unit [1] pins the variable *)
  let s = mk () in
  Sat.Solver.add_clause s (clause_of_ints [ 1 ]);
  Alcotest.(check bool) "sat after re-adding the variable" true
    (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "unit forced the restored variable" true
    (Sat.Solver.value s 0);
  Alcotest.(check bool) "implication chain respected" true
    (Sat.Solver.value s 2);
  (* restore via an assumption, in both polarities *)
  let s = mk () in
  Alcotest.(check bool) "sat under pos assumption" true
    (Sat.Solver.solve ~assumptions:[ Sat.Lit.pos 0 ] s = Sat.Solver.Sat);
  Alcotest.(check bool) "assumed value honoured" true (Sat.Solver.value s 0);
  Alcotest.(check bool) "sat under neg assumption" true
    (Sat.Solver.solve ~assumptions:[ Sat.Lit.neg_of 0 ] s = Sat.Solver.Sat);
  Alcotest.(check bool) "assumed value honoured (neg)" false
    (Sat.Solver.value s 0)

let test_simplify_unsat_certified () =
  (* explicit inprocessing on an UNSAT instance keeps the proof
     checkable, in both modes *)
  let lists = php_lists 5 4 in
  let s = Sat.Solver.create () in
  let proof = Sat.Proof.in_memory () in
  Sat.Solver.set_proof s (Some proof);
  List.iter (fun c -> Sat.Solver.add_clause s (clause_of_ints c)) lists;
  Sat.Solver.simplify s;
  Alcotest.(check bool) "php 5/4 unsat" true
    (Sat.Solver.solve s = Sat.Solver.Unsat);
  let f = cnf_of_lists lists in
  let steps = Sat.Proof.steps proof in
  (match Sat.Drup_check.check_unsat f steps with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("forward check failed: " ^ m));
  match Sat.Drup_check.check_unsat ~mode:Sat.Drup_check.Backward f steps with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("backward check failed: " ^ m)

(* ---------- model completion ---------- *)

(* The list-based completion the solver replayed before its elimination
   record went flat, kept as the oracle: newest entry first, a variable
   is true exactly when one of its stored positive occurrences has every
   other literal false. *)
let list_replay record m =
  List.iter
    (fun (v, cls) ->
      let pos = Sat.Lit.pos v in
      let lit_true l = m.(Sat.Lit.var l) = Sat.Lit.sign l in
      m.(v) <-
        List.exists
          (fun c ->
            List.exists (Sat.Lit.equal pos) c
            && List.for_all
                 (fun l -> Sat.Lit.equal l pos || not (lit_true l))
                 c)
          cls)
    record

let test_model_completion_replay () =
  (* sparse random instances, enumerated with blocking clauses over
     every eliminated variable (restoring them) and one more; explicit
     rounds at random points, while the answer's model is pending or
     after the blocking clause, eliminate variables again *)
  let rng = Random.State.make [| 0xe11 |] in
  let nvars = 12 in
  let restored = ref 0 and again = ref 0 in
  for _ = 1 to 20 do
    let lit () =
      Sat.Lit.make (Random.State.int rng nvars) (Random.State.bool rng)
    in
    let cls =
      List.init 16 (fun _ ->
          List.init (2 + Random.State.int rng 2) (fun _ -> lit ()))
    in
    let f = Sat.Cnf.create () in
    f.Sat.Cnf.num_vars <- nvars;
    List.iter (Sat.Cnf.add_clause f) cls;
    let s = Sat.Solver.create () in
    Sat.Solver.ensure_vars s nvars;
    List.iter (Sat.Solver.add_clause s) cls;
    Sat.Solver.simplify s;
    let back = Array.make nvars false in
    let elim () = List.map fst (Sat.Solver.eliminations s) in
    let rec enumerate round prev =
      if round < 30 && Sat.Solver.solve s = Sat.Solver.Sat then begin
        let record = Sat.Solver.eliminations s in
        List.iter
          (fun (v, _) ->
            if back.(v) then begin
              incr again;
              back.(v) <- false
            end)
          record;
        (* the active variables' values, read before any completion *)
        let expected =
          Array.init nvars (fun v ->
              (not (List.mem_assoc v record)) && Sat.Solver.value s v)
        in
        (* a round while the model is pending: the completion still
           replays the record as it stood at the answer *)
        if Random.State.bool rng then Sat.Solver.simplify s;
        let values = Array.init nvars (Sat.Solver.value s) in
        list_replay record expected;
        Alcotest.(check (array bool)) "value = list replay" expected values;
        let m = Sat.Solver.model s in
        Alcotest.(check (array bool)) "model = values" values m;
        Alcotest.(check bool) "model satisfies the formula" true
          (Sat.Cnf.eval f m);
        (match prev with
        | Some (pm, copy) ->
            Alcotest.(check (array bool)) "earlier model unchanged" copy pm
        | None -> ());
        let before = elim () in
        let extra = Random.State.int rng nvars in
        let vars = List.sort_uniq Int.compare (extra :: before) in
        Sat.Solver.add_clause s
          (List.map (fun v -> Sat.Lit.make v (not m.(v))) vars);
        let after = elim () in
        List.iter
          (fun v ->
            if not (List.mem v after) then begin
              incr restored;
              back.(v) <- true
            end)
          before;
        if Random.State.int rng 3 = 0 then Sat.Solver.simplify s;
        enumerate (round + 1) (Some (m, Array.copy m))
      end
    in
    enumerate 0 None
  done;
  Alcotest.(check bool) "blocking clauses restored variables" true
    (!restored > 0);
  Alcotest.(check bool) "later rounds eliminated them again" true (!again > 0)

(* ---------- CDCL vs DPLL on random formulas ---------- *)

let random_cnf_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 12 in
  let* nclauses = int_range 1 50 in
  let clause =
    let* len = int_range 1 4 in
    list_size (return len)
      (let* v = int_range 0 (nvars - 1) in
       let* sign = bool in
       return (Sat.Lit.make v sign))
  in
  let* cls = list_size (return nclauses) clause in
  return (nvars, List.map (List.sort_uniq Sat.Lit.compare) cls)

let cnf_print (nvars, cls) =
  Printf.sprintf "vars=%d %s" nvars
    (String.concat " ; "
       (List.map
          (fun c ->
            String.concat ","
              (List.map (fun l -> string_of_int (Sat.Lit.to_dimacs l)) c))
          cls))

let prop_cdcl_agrees_with_dpll =
  QCheck.Test.make ~count:500 ~name:"CDCL agrees with DPLL"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let f = Sat.Cnf.create () in
      f.Sat.Cnf.num_vars <- nvars;
      List.iter (Sat.Cnf.add_clause f) cls;
      let s = Sat.Solver.create () in
      let proof = Sat.Proof.in_memory () in
      Sat.Solver.set_proof s (Some proof);
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) cls;
      match (Sat.Solver.solve s, Sat.Dpll.solve f) with
      | Sat.Solver.Sat, Sat.Dpll.Sat _ ->
          (* the CDCL model must actually satisfy the formula *)
          Sat.Cnf.eval f (Sat.Solver.model s)
      | Sat.Solver.Unsat, Sat.Dpll.Unsat ->
          (* and every Unsat answer must carry a checkable DRUP proof *)
          Sat.Drup_check.check_unsat f (Sat.Proof.steps proof) = Ok ()
      | Sat.Solver.Sat, Sat.Dpll.Unsat
      | Sat.Solver.Unsat, Sat.Dpll.Sat _ ->
          false)

let prop_enumeration_counts_models =
  QCheck.Test.make ~count:100 ~name:"blocking-clause enumeration = model count"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      QCheck.assume (nvars <= 8);
      let f = Sat.Cnf.create () in
      f.Sat.Cnf.num_vars <- nvars;
      List.iter (Sat.Cnf.add_clause f) cls;
      let expected = Sat.Dpll.count_models f in
      let s = Sat.Solver.create () in
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) cls;
      let rec enumerate n =
        if n > expected + 1 then n
        else
          match Sat.Solver.solve s with
          | Sat.Solver.Unsat -> n
          | Sat.Solver.Sat ->
              let block =
                List.init nvars (fun v ->
                    Sat.Lit.make v (not (Sat.Solver.value s v)))
              in
              Sat.Solver.add_clause s block;
              enumerate (n + 1)
      in
      enumerate 0 = expected)

let prop_assumptions_consistent =
  QCheck.Test.make ~count:200 ~name:"solve under assumptions = solve with units"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let mk () =
        let s = Sat.Solver.create () in
        Sat.Solver.ensure_vars s nvars;
        List.iter (Sat.Solver.add_clause s) cls;
        s
      in
      let assumptions =
        List.init (min 3 nvars) (fun v -> Sat.Lit.make v (v mod 2 = 0))
      in
      let with_assumptions = Sat.Solver.solve ~assumptions (mk ()) in
      let s2 = mk () in
      List.iter (fun l -> Sat.Solver.add_clause s2 [ l ]) assumptions;
      let with_units = Sat.Solver.solve s2 in
      with_assumptions = with_units)

let prop_solver_reusable_after_assumptions =
  QCheck.Test.make ~count:100 ~name:"assumptions do not pollute the instance"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let s = Sat.Solver.create () in
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) cls;
      let base = Sat.Solver.solve s in
      ignore
        (Sat.Solver.solve
           ~assumptions:[ Sat.Lit.pos 0; Sat.Lit.neg_of (nvars - 1) ]
           s);
      Sat.Solver.solve s = base)

let prop_solve_limited_agrees =
  QCheck.Test.make ~count:200 ~name:"generous budget = plain solve"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let mk () =
        let s = Sat.Solver.create () in
        Sat.Solver.ensure_vars s nvars;
        List.iter (Sat.Solver.add_clause s) cls;
        s
      in
      let plain = Sat.Solver.solve (mk ()) in
      let budget = Sat.Budget.create ~conflicts:1_000_000 () in
      match Sat.Solver.solve_limited ~budget (mk ()) with
      | Sat.Solver.Solved r -> r = plain
      | Sat.Solver.Unknown -> false)

let prop_unsat_core_sound =
  QCheck.Test.make ~count:200 ~name:"failed-assumption cores are sound"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let f = Sat.Cnf.create () in
      f.Sat.Cnf.num_vars <- nvars;
      List.iter (Sat.Cnf.add_clause f) cls;
      let assumptions =
        List.init (min 4 nvars) (fun v -> Sat.Lit.make v (v mod 2 = 0))
      in
      let s = Sat.Solver.create () in
      let proof = Sat.Proof.in_memory () in
      Sat.Solver.set_proof s (Some proof);
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) cls;
      match Sat.Solver.solve ~assumptions s with
      | Sat.Solver.Sat -> true
      | Sat.Solver.Unsat ->
          let core = Sat.Solver.unsat_core s in
          (* the core is a subset of the assumptions... *)
          List.for_all
            (fun l -> List.exists (Sat.Lit.equal l) assumptions)
            core
          (* ...it is itself sufficient for Unsat... *)
          && (let s2 = Sat.Solver.create () in
              Sat.Solver.ensure_vars s2 nvars;
              List.iter (Sat.Solver.add_clause s2) cls;
              Sat.Solver.solve ~assumptions:core s2 = Sat.Solver.Unsat)
          (* ...and the proof certifies it *)
          && Sat.Drup_check.check_unsat ~assumptions:core f
               (Sat.Proof.steps proof)
             = Ok ())

let prop_shrink_core_irreducible =
  QCheck.Test.make ~count:200 ~name:"shrink_core yields an irreducible core"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let mk () =
        let s = Sat.Solver.create () in
        Sat.Solver.ensure_vars s nvars;
        List.iter (Sat.Solver.add_clause s) cls;
        s
      in
      let assumptions =
        List.init (min 4 nvars) (fun v -> Sat.Lit.make v (v mod 2 = 0))
      in
      let s = mk () in
      match Sat.Solver.solve ~assumptions s with
      | Sat.Solver.Sat -> true
      | Sat.Solver.Unsat ->
          let raw = Sat.Solver.unsat_core s in
          let shrunk = Sat.Solver.shrink_core s raw in
          (* a subset of the raw core... *)
          List.for_all (fun l -> List.exists (Sat.Lit.equal l) raw) shrunk
          (* ...still a core (checked on a fresh solver)... *)
          && Sat.Solver.solve ~assumptions:shrunk (mk ()) = Sat.Solver.Unsat
          (* ...and irreducible: dropping any one literal regains Sat
             (assumption sets are monotone, so drop-one suffices) *)
          && List.for_all
               (fun l ->
                 let rest =
                   List.filter (fun x -> not (Sat.Lit.equal x l)) shrunk
                 in
                 Sat.Solver.solve ~assumptions:rest (mk ()) = Sat.Solver.Sat)
               shrunk)

let prop_simplify_agrees_with_dpll =
  QCheck.Test.make ~count:150
    ~name:"simplify preserves satisfiability, models and certification"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let f = Sat.Cnf.create () in
      f.Sat.Cnf.num_vars <- nvars;
      List.iter (Sat.Cnf.add_clause f) cls;
      let s = Sat.Solver.create () in
      let proof = Sat.Proof.in_memory () in
      Sat.Solver.set_proof s (Some proof);
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) cls;
      Sat.Solver.simplify s;
      match (Sat.Solver.solve s, Sat.Dpll.solve f) with
      | Sat.Solver.Sat, Sat.Dpll.Sat _ ->
          (* the model must be extended over eliminated variables *)
          Sat.Cnf.eval f (Sat.Solver.model s)
      | Sat.Solver.Unsat, Sat.Dpll.Unsat ->
          (* inprocessing steps keep the proof checkable in both modes *)
          Sat.Drup_check.check_unsat f (Sat.Proof.steps proof) = Ok ()
          && Sat.Drup_check.check_unsat ~mode:Sat.Drup_check.Backward f
               (Sat.Proof.steps proof)
             = Ok ()
      | Sat.Solver.Sat, Sat.Dpll.Unsat | Sat.Solver.Unsat, Sat.Dpll.Sat _ ->
          false)

(* splice [x] into [xs] at position [i] *)
let insert_at i x xs =
  let rec go i acc = function
    | rest when i = 0 -> List.rev_append acc (x :: rest)
    | [] -> List.rev (x :: acc)
    | y :: rest -> go (i - 1) (y :: acc) rest
  in
  go i [] xs

let prop_deletion_heavy_proofs =
  QCheck.Test.make ~count:40
    ~name:"deletion-heavy proofs: forward, sharded and backward agree"
    (QCheck.make ~print:cnf_print random_cnf_gen)
    (fun (nvars, cls) ->
      let f = Sat.Cnf.create () in
      f.Sat.Cnf.num_vars <- nvars;
      List.iter (Sat.Cnf.add_clause f) cls;
      let s = Sat.Solver.create () in
      let proof = Sat.Proof.in_memory () in
      Sat.Solver.set_proof s (Some proof);
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) cls;
      match Sat.Solver.solve s with
      | Sat.Solver.Sat -> true
      | Sat.Solver.Unsat ->
          (* interleave learn/delete churn mirroring reduce_db into the
             real refutation: weakened copies of input clauses — tagged
             with a fresh variable so they collide with nothing — are
             added and later deleted at seeded-random positions.  Each
             add is RUP (a superset of a live clause), so the mutated
             proof is valid by construction. *)
          let rng = Random.State.make [| 0xd4c; nvars; List.length cls |] in
          let inputs = Array.of_list cls in
          let extra = Sat.Lit.pos nvars in
          let steps = ref (Array.to_list (Sat.Proof.steps proof)) in
          for _ = 1 to 8 do
            let c = inputs.(Random.State.int rng (Array.length inputs)) in
            let weak = extra :: c in
            let n = List.length !steps in
            let i = Random.State.int rng (n + 1) in
            let j = i + Random.State.int rng (n - i + 1) in
            steps := insert_at i (Sat.Proof.Add weak) !steps;
            steps := insert_at (j + 1) (Sat.Proof.Delete weak) !steps
          done;
          let steps = Array.of_list !steps in
          let fwd1 = Sat.Drup_check.check_unsat f steps in
          let fwd4 = Sat.Drup_check.check_unsat ~jobs:4 f steps in
          let bwd =
            Sat.Drup_check.check_unsat ~mode:Sat.Drup_check.Backward f steps
          in
          fwd1 = Ok ()
          && fwd4 = Ok ()
          && bwd = Ok ()
          &&
          (* a rogue insertion is rejected identically at every width —
             unless the inputs alone already refute, which makes any
             step vacuously acceptable *)
          let vacuous =
            let t = Sat.Drup_check.create () in
            Sat.Drup_check.add_cnf t f;
            Sat.Drup_check.refuted t
          in
          vacuous
          ||
          let rogue =
            Array.append [| Sat.Proof.Add [ Sat.Lit.pos (nvars + 3) ] |] steps
          in
          let e1 = Sat.Drup_check.check_unsat f rogue in
          let e4 = Sat.Drup_check.check_unsat ~jobs:4 f rogue in
          e1 <> Ok () && e1 = e4)

(* ---------- the kept trail: solve, add clauses, solve again ---------- *)

(* One step of an incremental session.  [Add] literals are given
   relative to the last model (or to all-false before the first): the
   pair (v, true) is the literal the model makes true, (v, false) the
   one it makes false.  So a clause of [false] pairs is false under the
   kept model, one [true] pair among [false] ones makes it unit at the
   levels of its false literals, and a lone pair is a unit clause. *)
type session_step = Solve of int | Block | Add of (int * bool) list

let session_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 8 in
  let* nclauses = int_range 0 24 in
  let lit =
    let* v = int_range 0 (nvars - 1) in
    let* sign = bool in
    return (Sat.Lit.make v sign)
  in
  let* cls =
    list_size (return nclauses)
      (let* len = int_range 1 4 in
       list_size (return len) lit)
  in
  (* assumption set 0 is empty; the others have up to three literals *)
  let* asets = list_size (return 2) (list_size (int_range 1 3) lit) in
  let step =
    frequency
      [
        ( 3,
          map
            (fun i -> Solve i)
            (frequency [ (3, return 0); (1, int_range 1 2) ]) );
        (2, return Block);
        ( 3,
          map
            (fun ps -> Add ps)
            (list_size (int_range 1 4)
               (pair (int_range 0 (nvars - 1))
                  (frequency [ (3, return false); (1, return true) ]))) );
      ]
  in
  let* steps = list_size (int_range 1 12) step in
  return (nvars, cls, [] :: asets, (Solve 0 :: steps) @ [ Solve 0 ])

let session_print (nvars, cls, asets, steps) =
  let lits ls =
    String.concat ","
      (List.map (fun l -> string_of_int (Sat.Lit.to_dimacs l)) ls)
  in
  Printf.sprintf "%s | assumptions %s | %s"
    (cnf_print (nvars, cls))
    (String.concat " ; " (List.map lits asets))
    (String.concat " "
       (List.map
          (function
            | Solve i -> Printf.sprintf "solve(%d)" i
            | Block -> "block"
            | Add ps ->
                Printf.sprintf "add(%s)"
                  (String.concat ","
                     (List.map
                        (fun (v, t) ->
                          Printf.sprintf "%d%c" v (if t then 't' else 'f'))
                        ps)))
          steps))

(* Replay a session on one solver and check every answer against a fresh
   solver and the DPLL reference on the same clauses and assumptions;
   every model must satisfy every clause and the assumptions.  The
   session ends with a blocking-clause enumeration under the last
   assumptions, whose count must equal the brute-force count.  With
   [certified], every Unsat is DRUP-checked and every model checked by
   [Drup_check.model_ok]. *)
let replay_session ~certified (nvars, cls, asets, steps) =
  let asets = Array.of_list asets in
  let s = Sat.Solver.create () in
  let proof = Sat.Proof.in_memory () in
  if certified then Sat.Solver.set_proof s (Some proof);
  Sat.Solver.ensure_vars s nvars;
  let clauses = ref [] in
  let add c =
    clauses := c :: !clauses;
    Sat.Solver.add_clause s c
  in
  List.iter add cls;
  let last_model = ref (Array.make nvars false) in
  let last_aset = ref [] in
  let cnf () =
    let f = Sat.Cnf.create () in
    f.Sat.Cnf.num_vars <- nvars;
    List.iter (Sat.Cnf.add_clause f) (List.rev !clauses);
    f
  in
  let model_ok assumptions m =
    Sat.Cnf.eval (cnf ()) m
    && List.for_all
         (fun l -> m.(Sat.Lit.var l) = Sat.Lit.sign l)
         assumptions
    && ((not certified)
       ||
       let t = Sat.Drup_check.create () in
       Sat.Drup_check.add_cnf t (cnf ());
       Sat.Drup_check.model_ok ~assumptions t (fun v -> m.(v)))
  in
  let unsat_ok () =
    (not certified)
    || Sat.Drup_check.check_unsat
         ~assumptions:(Sat.Solver.unsat_core s)
         (cnf ()) (Sat.Proof.steps proof)
       = Ok ()
  in
  (* one answer of the session's solver, checked; the enumeration's
     answers are checked by its count instead of the two references *)
  let solve ?(references = true) assumptions =
    let agrees r =
      (not references)
      ||
      let fresh = Sat.Solver.create () in
      Sat.Solver.ensure_vars fresh nvars;
      List.iter (Sat.Solver.add_clause fresh) (List.rev !clauses);
      let f = cnf () in
      List.iter (fun l -> Sat.Cnf.add_clause f [ l ]) assumptions;
      r = Sat.Solver.solve ~assumptions fresh
      &&
      match (r, Sat.Dpll.solve f) with
      | Sat.Solver.Sat, Sat.Dpll.Sat _ | Sat.Solver.Unsat, Sat.Dpll.Unsat ->
          true
      | _ -> false
    in
    let r = Sat.Solver.solve ~assumptions s in
    let ok =
      agrees r
      &&
      match r with
      | Sat.Solver.Sat ->
          let m = Sat.Solver.model s in
          last_model := m;
          model_ok assumptions m
      | Sat.Solver.Unsat -> unsat_ok ()
    in
    (r, ok)
  in
  let block () =
    add (List.init nvars (fun v -> Sat.Lit.make v (not !last_model.(v))))
  in
  let step_ok = function
    | Solve i ->
        last_aset := asets.(i);
        snd (solve asets.(i))
    | Block ->
        block ();
        true
    | Add ps ->
        add
          (List.map (fun (v, t) -> Sat.Lit.make v (!last_model.(v) = t)) ps);
        true
  in
  List.for_all step_ok steps
  &&
  let expected =
    let f = cnf () in
    List.iter (fun l -> Sat.Cnf.add_clause f [ l ]) !last_aset;
    Sat.Dpll.count_models f
  in
  let rec enumerate n =
    if n > expected then None
    else
      match solve ~references:false !last_aset with
      | _, false -> None
      | Sat.Solver.Unsat, true -> Some n
      | Sat.Solver.Sat, true ->
          block ();
          enumerate (n + 1)
  in
  enumerate 0 = Some expected

let prop_kept_trail =
  QCheck.Test.make ~count:300
    ~name:"kept trail: every answer of a session = a fresh solver's"
    (QCheck.make ~print:session_print session_gen)
    (replay_session ~certified:false)

let prop_kept_trail_certified =
  QCheck.Test.make ~count:150
    ~name:"kept trail: a certified session checks every answer"
    (QCheck.make ~print:session_print session_gen)
    (replay_session ~certified:true)

(* ---------- incremental model checks ---------- *)

(* One checker session: input clauses, proof steps and model checks
   interleaved.  [Flip] checks the current model after flipping the
   listed variables, under the listed assumptions; variables from
   [nvars] on appear in no clause, so the checker never saw them.
   [Del i] and [Weaken (i, l)] name the i-th clause of the session so
   far (modulo its length); a weakened copy is a RUP Add step while the
   clause it extends is live. *)
type mc_op =
  | Input of Sat.Lit.t list
  | Derive of Sat.Lit.t list
  | Weaken of int * Sat.Lit.t
  | Del of int
  | Flip of int list * Sat.Lit.t list

let mc_session_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 7 in
  let lit n =
    let* v = int_range 0 (n - 1) in
    let* sign = bool in
    return (Sat.Lit.make v sign)
  in
  let clause = list_size (int_range 1 3) (lit nvars) in
  let* cls = list_size (int_range 1 6) clause in
  let op =
    frequency
      [
        (3, map (fun c -> Input c) clause);
        (2, map (fun c -> Derive c) clause);
        (2, map2 (fun i l -> Weaken (i, l)) nat (lit nvars));
        (2, map (fun i -> Del i) nat);
        ( 5,
          map2
            (fun vs a -> Flip (vs, a))
            (list_size (int_range 0 3) (int_range 0 (nvars + 2)))
            (list_size (int_range 0 2) (lit (nvars + 3))) );
      ]
  in
  let* ops = list_size (int_range 1 30) op in
  return (nvars, cls, ops)

let mc_session_print (nvars, cls, ops) =
  let lits ls =
    String.concat ","
      (List.map (fun l -> string_of_int (Sat.Lit.to_dimacs l)) ls)
  in
  Printf.sprintf "%s | %s"
    (cnf_print (nvars, cls))
    (String.concat " "
       (List.map
          (function
            | Input c -> Printf.sprintf "in(%s)" (lits c)
            | Derive c -> Printf.sprintf "add(%s)" (lits c)
            | Weaken (i, l) -> Printf.sprintf "weaken(%d,%s)" i (lits [ l ])
            | Del i -> Printf.sprintf "del(%d)" i
            | Flip (vs, a) ->
                Printf.sprintf "check(flip %s; assume %s)"
                  (String.concat "," (List.map string_of_int vs))
                  (lits a))
          ops))

(* The from-scratch scan, kept as the oracle: every live input clause
   has a true literal and every assumption holds.  The live clause set
   is mirrored by normalized content, counting input and derived copies;
   a deletion takes a derived copy before an input one, as the checker
   does. *)
let prop_model_ok_incremental =
  QCheck.Test.make ~count:500
    ~name:"incremental model_ok = a from-scratch scan"
    (QCheck.make ~print:mc_session_print mc_session_gen)
    (fun (nvars, cls, ops) ->
      let t = Sat.Drup_check.create () in
      let live = Hashtbl.create 16 in
      let key c =
        let codes = List.sort_uniq Int.compare (List.map Sat.Lit.code c) in
        if List.exists (fun l -> List.mem (l lxor 1) codes) codes then None
        else Some codes
      in
      let counts k = Option.value ~default:(0, 0) (Hashtbl.find_opt live k) in
      let install ~input c =
        Option.iter
          (fun k ->
            let i, d = counts k in
            Hashtbl.replace live k (if input then (i + 1, d) else (i, d + 1)))
          (key c)
      in
      let history = ref [||] in
      let remember c = history := Array.append !history [| c |] in
      let nth i = !history.(i mod Array.length !history) in
      let model = Array.make (nvars + 3) false in
      let lit_true l = model.(Sat.Lit.var l) = Sat.Lit.sign l in
      let scan assumptions =
        Hashtbl.fold
          (fun k (i, _) ok ->
            ok
            && (i = 0
               || List.exists (fun l -> lit_true (Sat.Lit.of_code l)) k))
          live true
        && List.for_all lit_true assumptions
      in
      let add_input c =
        Sat.Drup_check.add_clause t c;
        install ~input:true c;
        remember c
      in
      let step c =
        match Sat.Drup_check.check_step t (Sat.Proof.Add c) with
        | Ok () ->
            install ~input:false c;
            remember c
        | Error _ -> ()
      in
      List.iter add_input cls;
      List.for_all
        (function
          | Input c ->
              add_input c;
              true
          | Derive c ->
              step c;
              true
          | Weaken (i, l) ->
              step (l :: nth i);
              true
          | Del i -> (
              let c = nth i in
              let r = Sat.Drup_check.check_step t (Sat.Proof.Delete c) in
              match key c with
              | None -> r = Ok ()
              | Some k -> (
                  match (counts k, r) with
                  | (0, 0), Error _ -> true
                  | (i, d), Ok () when i + d > 0 ->
                      Hashtbl.replace live k
                        (if d > 0 then (i, d - 1) else (i - 1, d));
                      true
                  | _ -> false))
          | Flip (vs, assumptions) ->
              List.iter (fun v -> model.(v) <- not model.(v)) vs;
              Sat.Drup_check.model_ok ~assumptions t (fun v -> model.(v))
              = scan assumptions)
        ops)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cdcl_agrees_with_dpll;
      prop_enumeration_counts_models;
      prop_assumptions_consistent;
      prop_solver_reusable_after_assumptions;
      prop_solve_limited_agrees;
      prop_unsat_core_sound;
      prop_shrink_core_irreducible;
      prop_simplify_agrees_with_dpll;
      prop_deletion_heavy_proofs;
      prop_kept_trail;
      prop_kept_trail_certified;
      prop_model_ok_incremental;
    ]

let () =
  Alcotest.run "sat"
    [
      ( "lit",
        [
          Alcotest.test_case "dimacs roundtrip" `Quick test_lit_roundtrip;
          Alcotest.test_case "negate" `Quick test_lit_negate;
          Alcotest.test_case "zero rejected" `Quick test_lit_zero_rejected;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs comments" `Quick test_dimacs_comments;
          Alcotest.test_case "dimacs whitespace" `Quick test_dimacs_whitespace;
          Alcotest.test_case "dimacs empty clause" `Quick
            test_dimacs_empty_clause;
          Alcotest.test_case "eval" `Quick test_cnf_eval;
        ] );
      ( "dpll",
        [
          Alcotest.test_case "simple sat" `Quick test_dpll_simple_sat;
          Alcotest.test_case "simple unsat" `Quick test_dpll_simple_unsat;
          Alcotest.test_case "model counting" `Quick test_dpll_counting;
        ] );
      ( "cdcl",
        [
          Alcotest.test_case "empty instance" `Quick test_cdcl_empty;
          Alcotest.test_case "unit clauses" `Quick test_cdcl_unit;
          Alcotest.test_case "empty clause" `Quick test_cdcl_empty_clause;
          Alcotest.test_case "contradiction" `Quick test_cdcl_contradiction;
          Alcotest.test_case "model satisfies" `Quick test_cdcl_model_satisfies;
          Alcotest.test_case "pigeonhole 4/3" `Quick test_cdcl_php;
          Alcotest.test_case "assumptions" `Quick test_cdcl_assumptions;
          Alcotest.test_case "incremental blocking" `Quick
            test_cdcl_incremental_blocking;
          Alcotest.test_case "stats move" `Quick test_cdcl_stats_move;
        ] );
      ( "budget",
        [
          Alcotest.test_case "charge/exhaust" `Quick test_budget_basics;
          Alcotest.test_case "unknown on tiny budget" `Quick
            test_budget_unknown;
          Alcotest.test_case "zero budget boundary" `Quick test_budget_zero;
          Alcotest.test_case "deterministic" `Quick test_budget_determinism;
          Alcotest.test_case "charged across calls" `Quick
            test_budget_charged_across_calls;
          Alcotest.test_case "renewed restarts the clock" `Quick
            test_budget_renewed;
          Alcotest.test_case "deadline bounds inprocessing" `Quick
            test_budget_deadline_bounds_inprocessing;
          Alcotest.test_case "learned accounting" `Quick
            test_stats_learned_accounting;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "already-true assumptions" `Quick
            test_assumptions_already_true;
          Alcotest.test_case "root-false core" `Quick
            test_assumption_root_false_core;
          Alcotest.test_case "core via propagation" `Quick
            test_assumption_core_via_propagation;
          Alcotest.test_case "global core empty" `Quick
            test_assumption_core_global;
          Alcotest.test_case "core requires unsat" `Quick
            test_unsat_core_requires_unsat;
          Alcotest.test_case "redundant assumption shrinks" `Quick
            test_shrink_core_redundant;
        ] );
      ( "activity",
        [
          Alcotest.test_case "bump_priority rescales" `Quick
            test_bump_priority_rescale;
        ] );
      ( "proof",
        [
          Alcotest.test_case "php proof checked" `Quick test_proof_php_checked;
          Alcotest.test_case "assumption core checked" `Quick
            test_proof_assumption_core_checked;
          Alcotest.test_case "byte deterministic" `Quick
            test_proof_deterministic;
          Alcotest.test_case "steps from an index" `Quick
            test_proof_steps_from;
          Alcotest.test_case "mutations rejected" `Quick
            test_proof_mutations_rejected;
          Alcotest.test_case "rup basics" `Quick test_checker_rup_basics;
          Alcotest.test_case "model_ok" `Quick test_checker_model_ok;
          Alcotest.test_case "model_ok: witness flipped" `Quick
            test_model_ok_witness_flipped;
          Alcotest.test_case "model_ok: clause since the check" `Quick
            test_model_ok_clause_since_check;
          Alcotest.test_case "model_ok: right after a failure" `Quick
            test_model_ok_after_failure;
          Alcotest.test_case "ghost unit deletion rejected" `Quick
            test_checker_ghost_unit_rejected;
          Alcotest.test_case "core must survive deletions" `Quick
            test_checker_core_must_survive;
          Alcotest.test_case "contradictory assumptions" `Quick
            test_checker_contradictory_assumptions;
        ] );
      ( "inprocessing",
        [
          Alcotest.test_case "subsumption" `Quick test_simplify_subsumption;
          Alcotest.test_case "self-subsumption strengthening" `Quick
            test_simplify_strengthen;
          Alcotest.test_case "bve model extension" `Quick
            test_simplify_bve_model_extension;
          Alcotest.test_case "restore on demand" `Quick
            test_simplify_restore_on_demand;
          Alcotest.test_case "unsat stays certified" `Quick
            test_simplify_unsat_certified;
          Alcotest.test_case "completion = list replay" `Quick
            test_model_completion_replay;
        ] );
      ("properties", qsuite);
    ]
