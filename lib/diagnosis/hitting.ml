type heuristic = Bfs | Greedy

type result = {
  outcome : Outcome.t;
  cores : int;
  reused : int;
  nodes : int;
  pruned : int;
}

let rec disjoint a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | x :: a', y :: b' ->
      if x = y then false
      else if x < y then disjoint a' b
      else disjoint a b'

let rec insert_sorted g = function
  | [] -> [ g ]
  | x :: rest as l -> if g < x then g :: l else x :: insert_sorted g rest

(* An HSDAG node: [path] is the sorted set of gates along the edges from
   the root.  [seq] is the global creation index (unique, the
   deterministic tie-break); [prio] is the creation-edge label's conflict
   frequency, the Greedy expansion key. *)
type node = { path : int list; depth : int; seq : int; prio : int }

type label = Conflict of int list | Exhausted | Interrupted

let diagnose ?(heuristic = Bfs) ?(max_solutions = max_int)
    ?(budget = Sat.Budget.unlimited ()) ?obs ?(certify = false) ~k c tests =
  let solver = Sat.Solver.create () in
  Option.iter (Sat.Solver.attach_obs solver) obs;
  let t0 = Obs.Clock.wall () in
  let inst =
    Telemetry.phase obs "hitting/cnf" (fun () ->
        Encode.Muxed.build ~certify ~max_k:k solver c tests)
  in
  let cands = Encode.Muxed.candidate_gates inst in
  (* code of a negated select -> its gate *)
  let ban_gate = Hashtbl.create 64 in
  Array.iter
    (fun g ->
      Hashtbl.replace ban_gate
        (Sat.Lit.code (Sat.Lit.negate (Encode.Muxed.select_lit inst g)))
        g)
    cands;
  let cnf_time = Obs.Clock.wall () -. t0 in
  Option.iter (fun o -> Obs.begin_event o "hitting/solve") obs;
  let start = Obs.Clock.wall () in
  let solutions = ref [] (* newest first, each sorted *) in
  let nsol = ref 0 (* = List.length !solutions *) in
  let one_time = ref 0.0 in
  (* the last node's diagnoses, newest first.  The pass that found them
     blocked them already; their clauses are emitted once more before
     the next node check, which keeps the solver's clause database, and
     so its effort counters, as the baseline gates recorded them *)
  let unsynced = ref [] in
  let ncalls = ref 0 in
  let conflicts = ref [] (* known conflict sets, discovery order *) in
  let conflict_seen = Hashtbl.create 32 in
  let freq = Hashtbl.create 64 in
  let freq_of g = Option.value ~default:0 (Hashtbl.find_opt freq g) in
  let seen = Hashtbl.create 64 in
  let frontier = ref [] in
  let seqr = ref 0 in
  let nodes = ref 0 in
  let cores = ref 0 in
  let reused = ref 0 in
  let pruned = ref 0 in
  let record f =
    if !solutions = [] then one_time := Obs.Clock.wall () -. start;
    solutions := f :: !solutions
  in
  let note_conflict cset =
    if not (Hashtbl.mem conflict_seen cset) then begin
      Hashtbl.replace conflict_seen cset ();
      conflicts := !conflicts @ [ cset ];
      List.iter (fun g -> Hashtbl.replace freq g (freq_of g + 1)) cset;
      Telemetry.observe obs "hitting/core_size" (List.length cset)
    end
  in
  (* children only below depth k: a node deeper than k cannot lie on the
     path of any diagnosis of size <= k *)
  let expand node cset =
    if node.depth < k then begin
      let order =
        match heuristic with
        | Bfs -> List.sort Int.compare cset
        | Greedy ->
            List.sort
              (fun a b ->
                match Int.compare (freq_of b) (freq_of a) with
                | 0 -> Int.compare a b
                | n -> n)
              cset
      in
      List.iter
        (fun g ->
          let path = insert_sorted g node.path in
          if Hashtbl.mem seen path then incr pruned
          else begin
            Hashtbl.replace seen path ();
            incr seqr;
            frontier :=
              { path; depth = node.depth + 1; seq = !seqr; prio = freq_of g }
              :: !frontier
          end)
        order
    end
  in
  let node_key n =
    match heuristic with Bfs -> (n.depth, n.seq) | Greedy -> (-n.prio, n.seq)
  in
  let pop_best first rest =
    let best =
      List.fold_left
        (fun acc n -> if node_key n < node_key acc then n else acc)
        first rest
    in
    frontier := List.filter (fun n -> n.seq <> best.seq) !frontier;
    best
  in
  let gates_of lits =
    List.filter_map (fun l -> Hashtbl.find_opt ban_gate (Sat.Lit.code l)) lits
  in
  (* one node check: the diagnoses inside [path], shrunk and blocked,
     then the conflict set that closes the node *)
  let check path =
    List.iter (Encode.Muxed.block inst) !unsynced;
    let in_path = Hashtbl.create 8 in
    List.iter (fun g -> Hashtbl.replace in_path g ()) path;
    let bans =
      Array.to_list cands
      |> List.filter_map (fun g ->
             if Hashtbl.mem in_path g then None
             else Some (Sat.Lit.negate (Encode.Muxed.select_lit inst g)))
    in
    (* a diagnosis whose shrink the budget cut is discarded: only
       globally inclusion-minimal diagnoses are recorded, so a truncated
       run's output stays a subset of the full run's.  The pass counts
       its diagnoses into [nsol] *)
    let r =
      Enumerate.single_pass ~extra:bans ~keep_cut:false ~found:nsol
        ~max_solutions ~budget ~k inst
    in
    ncalls := !ncalls + r.Enumerate.calls;
    List.iter record r.Enumerate.found;
    unsynced := List.rev r.Enumerate.found;
    if r.Enumerate.truncated then Interrupted
    else
      match gates_of (Sat.Solver.unsat_core solver) with
      | [] -> Exhausted
      | gates -> (
          let lits =
            List.map
              (fun g -> Sat.Lit.negate (Encode.Muxed.select_lit inst g))
              gates
          in
          let shrunk =
            Sat.Solver.shrink_core
              ~solve:(fun assumptions ->
                incr ncalls;
                Encode.Muxed.solve_at_most ~extra:assumptions ~budget inst k)
              solver lits
          in
          match List.sort Int.compare (gates_of shrunk) with
          | [] -> Exhausted
          | cset -> Conflict cset)
  in
  (* expand nodes in heuristic order until the DAG is closed, a check
     finds no diagnosis left, or the cap or the budget stops the run;
     prunes and conflict-set reuses need no solver call *)
  let rec search () =
    match !frontier with
    | [] -> false
    | _ when !nsol >= max_solutions || Sat.Budget.exhausted budget -> true
    | first :: rest -> (
        let node = pop_best first rest in
        if List.exists (fun r -> Solutions.subset r node.path) !solutions
        then begin
          incr pruned;
          search ()
        end
        else
          match
            List.find_opt (fun cset -> disjoint cset node.path) !conflicts
          with
          | Some cset ->
              incr reused;
              expand node cset;
              search ()
          | None -> (
              incr nodes;
              match check node.path with
              | Conflict cset ->
                  incr cores;
                  note_conflict cset;
                  expand node cset;
                  search ()
              | Exhausted -> false
              | Interrupted -> true))
  in
  Hashtbl.replace seen [] ();
  frontier := [ { path = []; depth = 0; seq = 0; prio = 0 } ];
  let truncated = search () in
  let all_time = Obs.Clock.wall () -. start in
  let outcome =
    {
      Outcome.solutions = Solutions.canonical (List.rev !solutions);
      truncated;
      solver_calls = !ncalls;
      stats = Sat.Solver.stats solver;
      cert_checks = Encode.Muxed.cert_checks inst;
      cert_failures = Encode.Muxed.cert_failures inst;
      cnf_time;
      one_time = !one_time;
      all_time;
    }
  in
  Option.iter
    (fun o ->
      Obs.end_event ~payload:!nsol o "hitting/solve";
      Outcome.record o ~prefix:"hitting" outcome;
      Obs.add o "hitting/cores" !cores;
      Obs.add o "hitting/nodes" !nodes;
      Obs.add o "hitting/reused" !reused;
      Obs.add o "hitting/pruned" !pruned)
    obs;
  { outcome; cores = !cores; reused = !reused; nodes = !nodes; pruned = !pruned }
