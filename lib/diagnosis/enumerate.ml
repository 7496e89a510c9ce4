type run = {
  found : int list list;
  calls : int;
  truncated : bool;
  first_at : float;
}

type instance = {
  solve :
    budget:Sat.Budget.t -> extra:Sat.Lit.t list -> int ->
    Sat.Solver.limited_result;
  solution : unit -> int list;
  block : int list -> unit;
}

let muxed ?unless inst =
  {
    solve =
      (fun ~budget ~extra i ->
        Encode.Muxed.solve_at_most ~extra ~budget inst i);
    solution = (fun () -> Encode.Muxed.solution inst);
    block = Encode.Muxed.block ?unless inst;
  }

(* Fig. 3's loop: [minimise] turns each model's solution into the set
   recorded and blocked; [None] ends the run as truncated *)
let run_levels ~extra ~first ~minimise ~found ~max_solutions ~budget ~k inst =
  let sols = ref [] and calls = ref 0 and first_at = ref infinity in
  let count () = incr calls in
  let finish truncated =
    { found = List.rev !sols; calls = !calls; truncated; first_at = !first_at }
  in
  let rec level i =
    if i > k then finish false
    else if !found >= max_solutions || Sat.Budget.exhausted budget then
      finish true
    else begin
      count ();
      match inst.solve ~budget ~extra i with
      | Sat.Solver.Solved Sat.Solver.Unsat -> level (i + 1)
      | Sat.Solver.Unknown -> finish true
      | Sat.Solver.Solved Sat.Solver.Sat -> (
          match minimise ~count (inst.solution ()) with
          | None -> finish true
          | Some sol ->
              if !sols = [] then first_at := Obs.Clock.wall ();
              sols := sol :: !sols;
              incr found;
              inst.block sol;
              level i)
    end
  in
  level first

let levels ?(extra = []) ?(first = 1) ~found ~max_solutions ~budget ~k inst =
  run_levels ~extra ~first
    ~minimise:(fun ~count:_ sol -> Some sol)
    ~found ~max_solutions ~budget ~k inst

let shrink ~budget ~count inst sol =
  let all_candidates = Array.to_list (Encode.Muxed.candidate_gates inst) in
  let test candidate =
    let in_candidate = Hashtbl.create 16 in
    List.iter (fun h -> Hashtbl.replace in_candidate h ()) candidate;
    let extra =
      List.map (Encode.Muxed.select_lit inst) candidate
      @ List.filter_map
          (fun h ->
            if Hashtbl.mem in_candidate h then None
            else Some (Sat.Lit.negate (Encode.Muxed.select_lit inst h)))
          all_candidates
    in
    count ();
    match
      Encode.Muxed.solve_at_most ~extra ~budget inst
        (List.length candidate)
    with
    | Sat.Solver.Solved Sat.Solver.Sat -> Sat.Shrink.Holds
    | Sat.Solver.Solved Sat.Solver.Unsat -> Sat.Shrink.Fails
    | Sat.Solver.Unknown -> Sat.Shrink.Unknown
  in
  Sat.Shrink.deletion ~test sol

(* the level loop pinned at level [k], each model shrunk *)
let single_pass ?(extra = []) ?(keep_cut = true) ~found ~max_solutions ~budget
    ~k inst =
  run_levels ~extra ~first:k
    ~minimise:(fun ~count sol ->
      match shrink ~budget ~count inst sol with
      | Ok sol -> Some sol
      | Error sol -> if keep_cut then Some sol else None)
    ~found ~max_solutions ~budget ~k (muxed inst)
