type result = Outcome.t = {
  solutions : int list list;
  truncated : bool;
  solver_calls : int;
  stats : Sat.Solver.stats;
  cert_checks : int;
  cert_failures : string list;
  cnf_time : float;
  one_time : float;
  all_time : float;
}

type hints = {
  priority : (int * float) list;
  prefer_selected : int list;
}

let no_hints = { priority = []; prefer_selected = [] }

let apply_hints solver inst hints =
  List.iter
    (fun (g, w) ->
      match Encode.Muxed.select_lit inst g with
      | l -> Sat.Solver.bump_priority solver (Sat.Lit.var l) w
      | exception Not_found -> ())
    hints.priority;
  List.iter
    (fun g ->
      match Encode.Muxed.select_lit inst g with
      | l -> Sat.Solver.set_default_phase solver (Sat.Lit.var l) true
      | exception Not_found -> ())
    hints.prefer_selected

type strategy = Incremental_k | Minimize_single_pass

(* Solver portfolio: the solution space is partitioned into cubes by
   fixing the first L = ⌈log2 jobs⌉ candidate select lines to each of
   the 2^L sign patterns; cube [j] goes to worker [j mod jobs].  Every
   worker enumerates its cubes with {!Enumerate} on its own instance (so
   learnt clauses and blocking clauses stay worker-local), charging the
   one shared atomic [budget].  A solution's cube is determined by its
   own first-L membership pattern, so the cubes are disjoint and
   exhaustive; a cube-minimal solution that is not globally minimal
   contains a smaller solution living in another cube, so filtering the
   merged union down to inclusion-minimal sets recovers exactly the
   one-cube essential-solution set, and the canonical sort makes the
   list independent of the width.  [jobs = 1] is one worker with the
   one empty cube and no branching diversity: Fig. 3 verbatim. *)

(* one worker's share: [run.solutions] unsorted; [fence] is the deepest
   cardinality level fully enumerated (to Unsat) in *every* cube the
   worker owns — the merge uses the minimum across workers to fence off
   solutions whose smaller dominator may have been lost to the budget
   in an unfinished cube *)
type worker = { run : result; fence : int; reg : Obs.t option }

let diagnose ?candidates ?(hints = no_hints)
    ?(strategy = Incremental_k) ?(max_solutions = max_int)
    ?(budget = Sat.Budget.unlimited ()) ?obs ?(obs_prefix = "bsat")
    ?(certify = false) ?(jobs = 1) ~k c tests =
  let jobs = Par.clamp_jobs jobs in
  let found = Atomic.make 0 in
  (* Lemma 1 by simulation: the gates whose flip alone corrects every
     failing test.  Every other candidate gets a clause saying so, which
     settles level 1 by propagation; a certified run's checker could not
     justify those clauses, so it proves level 1 by search *)
  let t0 = Obs.Clock.wall () in
  let is_single =
    if certify || k < 1 then None
    else begin
      let a = Array.make (Netlist.Circuit.size c) false in
      List.iter (fun g -> a.(g) <- true) (Validity.singles c tests);
      Some a
    end
  in
  let singles_time = Obs.Clock.wall () -. t0 in
  let worker w =
    (* one worker records straight into the caller's registry *)
    let reg =
      if jobs = 1 then obs else Option.map (fun _ -> Obs.create ()) obs
    in
    let solver = Sat.Solver.create () in
    Option.iter (Sat.Solver.attach_obs solver) reg;
    let wt0 = Obs.Clock.wall () in
    let inst =
      Telemetry.phase reg (obs_prefix ^ "/cnf") (fun () ->
          Encode.Muxed.build ?candidates ~certify ~max_k:k solver c tests)
    in
    let cands = Encode.Muxed.candidate_gates inst in
    Option.iter
      (fun single ->
        Array.iter
          (fun g -> if not single.(g) then Encode.Muxed.rule_out_single inst g)
          cands)
      is_single;
    apply_hints solver inst hints;
    let cnf_time = Obs.Clock.wall () -. wt0 in
    (* branching diversity between otherwise-identical workers: odd
       workers try selects on first, later workers bump select activity *)
    let select_var g = Sat.Lit.var (Encode.Muxed.select_lit inst g) in
    if w land 1 = 1 then
      Array.iter (fun g -> Sat.Solver.set_default_phase solver (select_var g) true) cands;
    if w >= 2 then
      Array.iteri
        (fun i g ->
          Sat.Solver.bump_priority solver (select_var g)
            (float_of_int ((i + w) land 7)))
        cands;
    let enumerate ~extra =
      match strategy with
      | Incremental_k ->
          Enumerate.levels ~extra ~found ~max_solutions ~budget ~k
            (Enumerate.muxed inst)
      | Minimize_single_pass ->
          Enumerate.single_pass ~extra ~found ~max_solutions ~budget ~k inst
    in
    let wstart = Obs.Clock.wall () in
    Option.iter (fun o -> Obs.begin_event o (obs_prefix ^ "/solve")) reg;
    let r =
      Array.map (Encode.Muxed.select_lit inst) cands
      |> Enumerate.cubes ~jobs ~worker:w
      |> List.map (fun extra -> enumerate ~extra)
      |> Enumerate.concat ~k
    in
    let all_time = Obs.Clock.wall () -. wstart in
    Option.iter
      (fun o ->
        Obs.end_event ~payload:(List.length r.found) o (obs_prefix ^ "/solve"))
      reg;
    {
      run =
        {
          solutions = r.found;
          truncated = r.truncated;
          solver_calls = r.calls;
          stats = Sat.Solver.stats solver;
          cert_checks = Encode.Muxed.cert_checks inst;
          cert_failures = Encode.Muxed.cert_failures inst;
          cnf_time;
          one_time = r.first_at -. wstart;
          all_time;
        };
      fence = r.completed;
      reg;
    }
  in
  let workers = Array.to_list (Par.run ~jobs worker) in
  (* per-worker certification composes: each worker certifies its own
     cubes' answers, and the cubes cover the solution space *)
  let total = Outcome.sum (List.map (fun w -> w.run) workers) in
  let total = { total with cnf_time = singles_time +. total.cnf_time } in
  let merged = Solutions.canonical total.solutions in
  (* one cube already yields an antichain.  Across cubes, a solution of
     size <= fence+1 that is not essential contains an essential one of
     size <= fence, which every worker's every cube enumerated to Unsat
     — so it is present in the union and the inclusion-minimal filter
     removes the superset.  Above the fence a dominator may have been
     lost to the budget; those solutions are dropped (the run is already
     marked truncated). *)
  let merged =
    if jobs = 1 then merged
    else
      let fence = List.fold_left (fun acc w -> min acc w.fence) k workers in
      Solutions.minimal_only merged
      |> List.filter (fun s -> List.length s <= fence + 1)
  in
  let over = List.length merged > max_solutions in
  let solutions =
    if over then List.filteri (fun i _ -> i < max_solutions) merged else merged
  in
  let r = { total with solutions; truncated = over || total.truncated } in
  Option.iter
    (fun obs ->
      if jobs > 1 then
        Obs.merge_children ~into:obs
          (Array.of_list (List.filter_map (fun w -> w.reg) workers));
      Outcome.record obs ~prefix:obs_prefix r)
    obs;
  r

let first_solution ?candidates ?hints ~k c tests =
  let r = diagnose ?candidates ?hints ~max_solutions:1 ~k c tests in
  match r.solutions with [] -> None | sol :: _ -> Some sol
