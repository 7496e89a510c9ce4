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

(* One solver + encoding per worker domain; [synced] counts the global
   blocking clauses already replayed into [inst]. *)
type wstate = {
  solver : Sat.Solver.t;
  inst : Encode.Muxed.t;
  reg : Obs.t option;
  ncalls : int ref;
  synced : int ref;
  ban_gate : (int, int) Hashtbl.t; (* code of a negated select -> gate *)
  cnf_time : float;
}

(* An HSDAG node: [path] is the sorted set of gates along the edges from
   the root.  [seq] is the global creation index (unique, the
   deterministic tie-break); [prio] is the creation-edge label's conflict
   frequency, the Greedy expansion key. *)
type node = { path : int list; depth : int; seq : int; prio : int }

type label = Conflict of int list | Exhausted | Interrupted

type outcome = { found : int list list; label : label }

let diagnose ?(heuristic = Bfs) ?(max_solutions = max_int)
    ?(budget = Sat.Budget.unlimited ()) ?obs ?(certify = false) ?(jobs = 1) ~k
    c tests =
  let jobs = Par.clamp_jobs jobs in
  let found = Atomic.make 0 in
  let states =
    Par.run ~jobs (fun _ ->
        let reg =
          if jobs = 1 then obs else Option.map (fun _ -> Obs.create ()) obs
        in
        let solver = Sat.Solver.create () in
        Option.iter (Sat.Solver.attach_obs solver) reg;
        let t0 = Obs.Clock.wall () in
        let inst =
          Telemetry.phase reg "hitting/cnf" (fun () ->
              Encode.Muxed.build ~certify ~max_k:k solver c tests)
        in
        let ban_gate = Hashtbl.create 64 in
        Array.iter
          (fun g ->
            Hashtbl.replace ban_gate
              (Sat.Lit.code (Sat.Lit.negate (Encode.Muxed.select_lit inst g)))
              g)
          (Encode.Muxed.candidate_gates inst);
        {
          solver;
          inst;
          reg;
          ncalls = ref 0;
          synced = ref 0;
          ban_gate;
          cnf_time = Obs.Clock.wall () -. t0;
        })
  in
  let cands = Encode.Muxed.candidate_gates states.(0).inst in
  Option.iter (fun o -> Obs.begin_event o "hitting/solve") obs;
  let start = Obs.Clock.wall () in
  (* shared enumeration state, touched only on the main domain between
     rounds *)
  let solutions = ref [] (* newest first, each sorted *) in
  let nsol = ref 0 in
  let one_time = ref 0.0 in
  let blocks = ref [] (* = !solutions; the worker replay log *) in
  let nblocks = ref 0 in
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
  let truncated = ref false in
  let done_ = ref false in
  let stop = ref false in
  let record f =
    if !nsol = 0 then one_time := Obs.Clock.wall () -. start;
    solutions := f :: !solutions;
    incr nsol;
    blocks := f :: !blocks;
    incr nblocks
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
  let pop_best () =
    match !frontier with
    | [] -> None
    | first :: rest ->
        let best =
          List.fold_left
            (fun acc n -> if node_key n < node_key acc then n else acc)
            first rest
        in
        frontier := List.filter (fun n -> n.seq <> best.seq) !frontier;
        Some best
  in
  let out_of_budget () =
    !nsol >= max_solutions || Sat.Budget.exhausted budget
  in
  (* ---- per-worker node processing ---- *)
  let sync st =
    let missing = !nblocks - !(st.synced) in
    if missing > 0 then begin
      let rec replay n l =
        if n > 0 then
          match l with
          | [] -> ()
          | f :: rest ->
              Encode.Muxed.block st.inst f;
              replay (n - 1) rest
      in
      replay missing !blocks;
      st.synced := !nblocks
    end
  in
  let gates_of st lits =
    List.filter_map
      (fun l -> Hashtbl.find_opt st.ban_gate (Sat.Lit.code l))
      lits
  in
  let process st path =
    let in_path = Hashtbl.create 8 in
    List.iter (fun g -> Hashtbl.replace in_path g ()) path;
    let bans =
      Array.to_list cands
      |> List.filter_map (fun g ->
             if Hashtbl.mem in_path g then None
             else
               Some (Sat.Lit.negate (Encode.Muxed.select_lit st.inst g)))
    in
    (* a diagnosis whose shrink the budget cut is discarded: only
       globally inclusion-minimal diagnoses are recorded, so a truncated
       run's output stays a subset of the full run's *)
    let r =
      Enumerate.single_pass ~extra:bans ~keep_cut:false ~found ~max_solutions
        ~budget ~k st.inst
    in
    st.ncalls := !(st.ncalls) + r.Enumerate.calls;
    let label =
      if r.Enumerate.truncated then Interrupted
      else
        match gates_of st (Sat.Solver.unsat_core st.solver) with
        | [] -> Exhausted
        | gates -> (
            let lits =
              List.map
                (fun g -> Sat.Lit.negate (Encode.Muxed.select_lit st.inst g))
                gates
            in
            let shrunk =
              Sat.Solver.shrink_core
                ~solve:(fun assumptions ->
                  incr st.ncalls;
                  Encode.Muxed.solve_at_most ~extra:assumptions ~budget
                    st.inst k)
                st.solver lits
            in
            match List.sort Int.compare (gates_of st shrunk) with
            | [] -> Exhausted
            | cset -> Conflict cset)
    in
    { found = r.Enumerate.found; label }
  in
  (* ---- synchronous expansion rounds ---- *)
  (* pull the next up-to-[jobs] nodes that really need a solver call,
     serving prunes and conflict-set reuses inline *)
  let rec fill acc n =
    if n = 0 then List.rev acc
    else
      match pop_best () with
      | None -> List.rev acc
      | Some node -> (
          if List.exists (fun r -> Solutions.subset r node.path) !solutions then begin
            incr pruned;
            fill acc n
          end
          else
            match
              List.find_opt (fun cset -> disjoint cset node.path) !conflicts
            with
            | Some cset ->
                incr reused;
                expand node cset;
                fill acc n
            | None -> fill (node :: acc) (n - 1))
  in
  Hashtbl.replace seen [] ();
  frontier := [ { path = []; depth = 0; seq = 0; prio = 0 } ];
  while (not !done_) && (not !stop) && !frontier <> [] do
    if out_of_budget () then begin
      truncated := true;
      stop := true
    end
    else begin
      let batch = Array.of_list (fill [] jobs) in
      if Array.length batch > 0 then begin
        let outs =
          Par.run ~jobs (fun w ->
              let st = states.(w) in
              sync st;
              let res = ref [] in
              Array.iteri
                (fun i node ->
                  if i mod jobs = w then
                    res := (i, process st node.path) :: !res)
                batch;
              !res)
        in
        let flat =
          Array.to_list outs |> List.concat
          |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
        in
        List.iter
          (fun (i, out) ->
            let node = batch.(i) in
            incr nodes;
            (* a worker's find is stale when a node merged earlier this
               round already recorded a subset of it *)
            List.iter
              (fun f ->
                if not (List.exists (fun r -> Solutions.subset r f) !solutions) then
                  record f)
              out.found;
            match out.label with
            | Conflict cset ->
                incr cores;
                note_conflict cset;
                expand node cset
            | Exhausted -> done_ := true
            | Interrupted ->
                truncated := true;
                stop := true)
          flat;
        Atomic.set found !nsol
      end
    end
  done;
  let all_time = Obs.Clock.wall () -. start in
  let workers =
    Array.to_list states
    |> List.map (fun st ->
           {
             Outcome.empty with
             solver_calls = !(st.ncalls);
             stats = Sat.Solver.stats st.solver;
             cert_checks = Encode.Muxed.cert_checks st.inst;
             cert_failures = Encode.Muxed.cert_failures st.inst;
             cnf_time = st.cnf_time;
           })
    |> Outcome.sum
  in
  let outcome =
    {
      workers with
      solutions = Solutions.canonical (List.rev !solutions);
      truncated = !truncated;
      one_time = !one_time;
      all_time;
    }
  in
  Option.iter
    (fun o ->
      Obs.end_event ~payload:!nsol o "hitting/solve";
      if jobs > 1 then
        Array.to_list states
        |> List.filter_map (fun st -> st.reg)
        |> Array.of_list
        |> Obs.merge_children ~into:o;
      Outcome.record o ~prefix:"hitting" outcome;
      Obs.add o "hitting/cores" !cores;
      Obs.add o "hitting/nodes" !nodes;
      Obs.add o "hitting/reused" !reused;
      Obs.add o "hitting/pruned" !pruned)
    obs;
  { outcome; cores = !cores; reused = !reused; nodes = !nodes; pruned = !pruned }
