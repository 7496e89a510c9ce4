module Lit = Sat.Lit

type engine = Sat_engine | Backtrack_engine

type result = {
  bsim : Bsim.result;
  solutions : int list list;
  cnf_time : float;
  one_time : float;
  all_time : float;
  truncated : bool;
}

let covers solution sets =
  Array.for_all
    (fun ci -> List.exists (fun g -> List.mem g ci) solution)
    sets

let irredundant solution sets =
  List.for_all
    (fun g -> not (covers (List.filter (( <> ) g) solution) sets))
    solution

(* Greedy reduction of a cover to an irredundant core: drop every element
   whose removal leaves the sets covered.  Deterministic (scans in sorted
   order), so both engines see the same canonical solution. *)
let irredundant_core solution sets =
  List.fold_left
    (fun kept g ->
      let without = List.filter (( <> ) g) kept in
      if covers without sets then without else kept)
    solution solution

(* ---------- SAT engine (the paper's setup: covering solved by Zchaff) *)

(* One worker's covering instance: variables over the sorted union,
   one clause per candidate set, a cardinality counter.  Every worker of
   a parallel enumeration builds an identical instance. *)
let build_cover_instance ~k sets =
  let union =
    Array.fold_left
      (fun acc ci -> List.fold_left (fun a g -> g :: a) acc ci)
      [] sets
    |> List.sort_uniq Int.compare
    |> Array.of_list
  in
  let index = Hashtbl.create (Array.length union) in
  Array.iteri (fun i g -> Hashtbl.add index g i) union;
  let solver = Sat.Solver.create () in
  let e = Encode.Emit.of_solver solver in
  let vars = Array.map (fun _ -> e.Encode.Emit.fresh ()) union in
  Array.iter
    (fun ci ->
      e.Encode.Emit.clause
        (List.map (fun g -> Lit.pos vars.(Hashtbl.find index g)) ci))
    sets;
  let counter =
    Encode.Cardinality.encode_at_most e
      ~lits:(Array.to_list (Array.map Lit.pos vars))
      ~max_bound:(min k (Array.length union))
  in
  (union, index, solver, vars, counter)

(* Enumerate the irredundant covers reachable under [extra] assumptions,
   blocking each recorded core; [record] returns false to stop early. *)
let enumerate_cover_cubes ~k ~out_of_budget ~record (union, index, solver, vars, counter)
    ~cubes sets =
  let truncated = ref false in
  let bound = min k (Array.length union) in
  List.iter
    (fun cube ->
      for i = 1 to bound do
        let continue_level = ref true in
        while !continue_level do
          if out_of_budget () then begin
            truncated := true;
            continue_level := false
          end
          else
            let assumptions =
              cube @ Encode.Cardinality.bound_assumption counter i
            in
            match Sat.Solver.solve ~assumptions solver with
            | Sat.Solver.Unsat -> continue_level := false
            | Sat.Solver.Sat ->
                let sol = ref [] in
                Array.iteri
                  (fun j v ->
                    if Sat.Solver.value solver v then sol := union.(j) :: !sol)
                  vars;
                (* The model is a cover but nothing forces it to be
                   minimal: the cardinality bound admits gratuitously-true
                   variables.  Reduce to an irredundant core before
                   recording/blocking so the enumerated space matches the
                   backtrack oracle's (condition (b) of Fig. 4); blocking
                   the core also blocks every redundant superset, so the
                   level still terminates. *)
                let sol = irredundant_core (List.sort Int.compare !sol) sets in
                record sol;
                Sat.Solver.add_clause solver
                  (List.map
                     (fun g -> Lit.negate (Lit.pos vars.(Hashtbl.find index g)))
                     sol)
        done
      done)
    cubes;
  !truncated

let enumerate_sat ?(jobs = 1) ~max_solutions ~time_limit ~k sets =
  if covers [] sets then
    (* no sets to hit (m = 0): the empty cover is the unique irredundant
       solution, exactly as the backtrack engine reports it *)
    ([ [] ], 0.0, 0.0, false)
  else if jobs = 1 then begin
    let inst = build_cover_instance ~k sets in
    let start = Sys.time () in
    let solutions = ref [] in
    let nsol = ref 0 in
    let one_time = ref 0.0 in
    let out_of_budget () =
      !nsol >= max_solutions || Sys.time () -. start > time_limit
    in
    let record sol =
      if !nsol = 0 then one_time := Sys.time () -. start;
      solutions := sol :: !solutions;
      incr nsol
    in
    let truncated =
      enumerate_cover_cubes ~k ~out_of_budget ~record inst ~cubes:[ [] ] sets
    in
    (Solutions.canonical !solutions, !one_time, Sys.time () -. start, truncated)
  end
  else begin
    (* Cube partition over the first L union variables, cube [j] to
       worker [j mod jobs].  Irredundant covers of a monotone covering
       problem form an antichain, so every recorded core is globally
       irredundant wherever it is found, and the deduplicated union over
       cubes is exactly the sequential solution set.  Timed by the wall
       clock: process CPU time sums over the worker domains. *)
    let start = Obs.Clock.wall () in
    let found = Atomic.make 0 in
    let worker w =
      let ((union, _, _, vars, _) as inst) = build_cover_instance ~k sets in
      let l =
        let rec fit l = if 1 lsl l >= jobs then l else fit (l + 1) in
        min (fit 0) (Array.length union)
      in
      let ncubes = 1 lsl l in
      let rec my_cubes j =
        if j >= ncubes then []
        else
          List.init l (fun i ->
              let lit = Lit.pos vars.(i) in
              if j land (1 lsl i) <> 0 then lit else Lit.negate lit)
          :: my_cubes (j + jobs)
      in
      let wstart = Obs.Clock.wall () in
      let sols = ref [] in
      let one_time = ref 0.0 in
      let out_of_budget () =
        Atomic.get found >= max_solutions
        || Obs.Clock.wall () -. wstart > time_limit
      in
      let record sol =
        if !sols = [] then one_time := Obs.Clock.wall () -. wstart;
        sols := sol :: !sols;
        Atomic.incr found
      in
      let truncated =
        enumerate_cover_cubes ~k ~out_of_budget ~record inst ~cubes:(my_cubes w)
          sets
      in
      (!sols, truncated, !one_time)
    in
    let results = Par.run ~jobs worker in
    let merged =
      Array.to_list results
      |> List.concat_map (fun (sols, _, _) -> sols)
      |> Solutions.canonical
    in
    let truncated =
      Array.exists (fun (_, tr, _) -> tr) results
      || List.length merged > max_solutions
    in
    let solutions =
      if List.length merged > max_solutions then
        List.filteri (fun i _ -> i < max_solutions) merged
      else merged
    in
    let one_time =
      Array.fold_left
        (fun acc (sols, _, ot) -> if sols = [] then acc else Float.min acc ot)
        infinity results
    in
    let one_time = if Float.is_finite one_time then one_time else 0.0 in
    (solutions, one_time, Obs.Clock.wall () -. start, truncated)
  end

(* ---------- branch-and-bound oracle ---------- *)

let enumerate_backtrack ~max_solutions ~time_limit ~k sets =
  let start = Sys.time () in
  let found = Hashtbl.create 64 in
  let solutions = ref [] in
  let one_time = ref 0.0 in
  let truncated = ref false in
  let record sol =
    let key = List.sort Int.compare sol in
    if (not (Hashtbl.mem found key)) && irredundant key sets then begin
      if Hashtbl.length found = 0 then one_time := Sys.time () -. start;
      Hashtbl.add found key ();
      solutions := key :: !solutions
    end
  in
  let exception Budget in
  let rec go chosen =
    if Hashtbl.length found >= max_solutions
       || Sys.time () -. start > time_limit
    then begin
      truncated := true;
      raise Budget
    end;
    let uncovered =
      Array.to_list sets
      |> List.filter (fun ci ->
             not (List.exists (fun g -> List.mem g chosen) ci))
    in
    match uncovered with
    | [] -> record chosen
    | _ when List.length chosen >= k -> ()
    | _ ->
        (* branch on the smallest uncovered set *)
        let smallest =
          List.fold_left
            (fun best ci ->
              if List.length ci < List.length best then ci else best)
            (List.hd uncovered) (List.tl uncovered)
        in
        List.iter
          (fun g -> if not (List.mem g chosen) then go (g :: chosen))
          smallest
  in
  (try go [] with Budget -> ());
  (Solutions.canonical !solutions, !one_time, Sys.time () -. start, !truncated)

let enumerate ?(engine = Sat_engine) ?(max_solutions = max_int)
    ?(time_limit = infinity) ?(jobs = 1) ~k sets =
  let jobs = Par.clamp_jobs jobs in
  let solutions, _, _, truncated =
    match engine with
    | Sat_engine -> enumerate_sat ~jobs ~max_solutions ~time_limit ~k sets
    | Backtrack_engine -> enumerate_backtrack ~max_solutions ~time_limit ~k sets
  in
  (solutions, truncated)

let diagnose ?(engine = Sat_engine) ?tie_break ?(max_solutions = max_int)
    ?(time_limit = infinity) ?obs ?(jobs = 1) ~k c tests =
  let jobs = Par.clamp_jobs jobs in
  let t0 = Obs.Clock.wall () in
  let bsim = Bsim.diagnose ?tie_break ?obs ~jobs c tests in
  let sets = bsim.Bsim.candidate_sets in
  let cnf_time = Obs.Clock.wall () -. t0 in
  let solutions, one_time, all_time, truncated =
    Telemetry.phase obs "cov/enumerate"
      ~payload:(fun (sols, _, _, _) -> List.length sols)
      (fun () ->
        match engine with
        | Sat_engine -> enumerate_sat ~jobs ~max_solutions ~time_limit ~k sets
        | Backtrack_engine ->
            enumerate_backtrack ~max_solutions ~time_limit ~k sets)
  in
  (match obs with
  | None -> ()
  | Some o ->
      List.iter
        (fun sol -> Obs.observe o "cov/solution_size" (List.length sol))
        solutions;
      Obs.add o "cov/solutions" (List.length solutions);
      Obs.add o "cov/truncated" (if truncated then 1 else 0));
  { bsim; solutions; cnf_time; one_time; all_time; truncated }
