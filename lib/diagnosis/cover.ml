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

(* ---------- SAT engine (the paper's setup: covering solved by Zchaff) *)

(* The covering instance: variables over the sorted union, one clause
   per candidate set, a cardinality counter.  Returned with its deepest
   level. *)
let cover_instance ~k sets =
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
  let bound = min k (Array.length union) in
  let counter =
    Encode.Cardinality.encode_at_most e
      ~lits:(Array.to_list (Array.map Lit.pos vars))
      ~max_bound:bound
  in
  let solution () =
    let sol = ref [] in
    Array.iteri
      (fun j v -> if Sat.Solver.value solver v then sol := union.(j) :: !sol)
      vars;
    (* The model is a cover but nothing forces it to be minimal: the
       cardinality bound admits gratuitously-true variables.  Reduce to
       an irredundant core before recording/blocking so the enumerated
       space matches the backtrack oracle's (condition (b) of Fig. 4);
       blocking the core also blocks every redundant superset, so the
       level still terminates. *)
    Sat.Shrink.deletion
      ~test:(fun s ->
        if covers s sets then Sat.Shrink.Holds else Sat.Shrink.Fails)
      (List.sort Int.compare !sol)
    |> Result.get_ok
  in
  let block sol =
    Sat.Solver.add_clause solver
      (List.map (fun g -> Lit.negate (Lit.pos vars.(Hashtbl.find index g))) sol)
  in
  let solve ~budget ~extra i =
    let assumptions = extra @ Encode.Cardinality.bound_assumption counter i in
    Sat.Solver.solve_limited ~assumptions ~budget solver
  in
  ({ Enumerate.solve; solution; block }, bound)

(* Fig. 3's level loop on the covering instance *)
let enumerate_sat ~max_solutions ~budget ~k sets =
  if covers [] sets then
    (* no sets to hit (m = 0): the empty cover is the unique irredundant
       solution, exactly as the backtrack engine reports it *)
    ([ [] ], 0.0, 0.0, false)
  else begin
    let start = Obs.Clock.wall () in
    let inst, bound = cover_instance ~k sets in
    let r =
      Enumerate.levels ~found:(ref 0) ~max_solutions ~budget ~k:bound inst
    in
    let first = r.Enumerate.first_at in
    ( Solutions.canonical r.Enumerate.found,
      (if Float.is_finite first then first -. start else 0.0),
      Obs.Clock.wall () -. start,
      r.Enumerate.truncated )
  end

(* ---------- branch-and-bound oracle ---------- *)

let enumerate_backtrack ~max_solutions ~budget ~k sets =
  let start = Obs.Clock.wall () in
  let found = Hashtbl.create 64 in
  let solutions = ref [] in
  let one_time = ref 0.0 in
  let truncated = ref false in
  let record sol =
    let key = List.sort Int.compare sol in
    if (not (Hashtbl.mem found key)) && irredundant key sets then begin
      if Hashtbl.length found = 0 then one_time := Obs.Clock.wall () -. start;
      Hashtbl.add found key ();
      solutions := key :: !solutions
    end
  in
  let exception Budget in
  let rec go chosen =
    if Hashtbl.length found >= max_solutions || Sat.Budget.exhausted budget
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
  (Solutions.canonical !solutions, !one_time, Obs.Clock.wall () -. start,
   !truncated)

let run_engine ~engine ~max_solutions ~budget ~k sets =
  match engine with
  | Sat_engine -> enumerate_sat ~max_solutions ~budget ~k sets
  | Backtrack_engine -> enumerate_backtrack ~max_solutions ~budget ~k sets

let enumerate ?(engine = Sat_engine) ?(max_solutions = max_int)
    ?(budget = Sat.Budget.unlimited ()) ~k sets =
  let solutions, _, _, truncated =
    run_engine ~engine ~max_solutions ~budget ~k sets
  in
  (solutions, truncated)

let diagnose ?(engine = Sat_engine) ?tie_break ?(max_solutions = max_int)
    ?(budget = Sat.Budget.unlimited ()) ?obs ?jobs ~k c tests =
  let t0 = Obs.Clock.wall () in
  let bsim = Bsim.diagnose ?tie_break ?obs ?jobs c tests in
  let sets = bsim.Bsim.candidate_sets in
  let cnf_time = Obs.Clock.wall () -. t0 in
  let solutions, one_time, all_time, truncated =
    Telemetry.phase obs "cov/enumerate"
      ~payload:(fun (sols, _, _, _) -> List.length sols)
      (fun () -> run_engine ~engine ~max_solutions ~budget ~k sets)
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
