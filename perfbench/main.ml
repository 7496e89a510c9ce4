(* perfbench: one wall-clock benchmark of diagnosis, end to end and per
   layer.

   Two seeded workloads drive the public entry points of the diagnosis
   engines, the encoder, the SAT solver and the serve layer.  Every
   operation is timed from outside with [Obs.Clock.wall]; every answer is
   checked after the timed section.  An untraced run prints the
   end-to-end metrics; a traced run ([--trace 1]) adds the calls that
   split the time into layers and prints the per-layer table.  The last
   line of standard output is one JSON object:
   [{"correct", "attempted", "failed", "metrics"}].  See README.md. *)

module J = Obs.Json
module W = Bench_suite.Workload
module Bsat = Diagnosis.Bsat
module Server = Serve.Server
module Protocol = Serve.Protocol

let wall = Obs.Clock.wall
let scale = 0.12

(* ---------- statistics ---------- *)

let median l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank quantile *)
let quantile q l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let sum l = List.fold_left ( +. ) 0.0 l

let time f =
  let t0 = wall () in
  let r = f () in
  let dt = wall () -. t0 in
  (r, dt)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* The permutation of [l] whose lexicographic rank is the seed modulo
   [n!], so consecutive seeds give different permutations ([l] has at
   most 19 elements, so [2 * n!] fits an OCaml int). *)
let permute seed l =
  let n = List.length l in
  if n > 19 then invalid_arg "permute: more than 19 elements";
  let total = factorial n in
  let rec unrank rank = function
    | [] -> []
    | l ->
        let f = factorial (List.length l - 1) in
        let i = rank / f in
        List.nth l i :: unrank (rank mod f) (List.filteri (fun j _ -> j <> i) l)
  in
  unrank (((seed mod total) + total) mod total) l

let digest_solutions sols =
  sols
  |> List.map (fun s ->
         String.concat "," (List.map string_of_int (List.sort compare s)))
  |> List.sort compare |> String.concat ";" |> Digest.string |> Digest.to_hex

(* Element-wise minimum of equally long sample lists: each operation's
   fastest run.  Other programs share the machine and slow it down for
   seconds at a time, so the fastest of several runs is the steadiest
   estimate of what an operation costs. *)
let fastest = function
  | [] -> []
  | first :: rest -> List.fold_left (List.map2 Float.min) first rest

(* Set-up takes milliseconds, so one sample of it would be mostly noise.
   It runs [setup_repeats] times before the first pass and again before
   every later pass, so that its samples spread over the whole run like
   the passes do; [setup_s] is the median sample.  Each repetition
   starts from a compacted heap, so the samples do not depend on what
   the heap held before. *)
let setup_repeats = 9

(* the last result and the durations *)
let timed_setup f =
  let rec go n acc last =
    if n = 0 then (Option.get last, acc)
    else
      let () = Gc.compact () in
      let r, dt = time f in
      go (n - 1) (dt :: acc) (Some r)
  in
  go setup_repeats [] None

(* [timed_setup] plus a hook that takes more samples between passes *)
let sampled_setup f =
  let r, first = timed_setup f in
  let samples = ref first in
  let again () = samples := snd (timed_setup f) @ !samples in
  (r, samples, again)

(* Run passes until the next one is projected to end past [deadline];
   at least [min] of them.  Each pass starts from a compacted heap.  A
   pass returns its result and the seconds it spent on the benchmark's
   own housekeeping, which are not counted.  Each result is checked and
   reduced by [summarize] as soon as its pass ends, outside the timing,
   so no pass keeps the previous ones' data alive.  Returns
   [(summary, seconds)] per pass. *)
let run_passes ~min ~deadline ~summarize ~between pass =
  let rec go acc n =
    if n > 0 then between ();
    Gc.compact ();
    let (r, housekeeping), dt = time pass in
    let dt = dt -. housekeeping in
    let acc = (summarize r, dt) :: acc in
    if n + 1 >= min && wall () +. dt > deadline then List.rev acc
    else go acc (n + 1)
  in
  go [] 0

(* ---------- metrics ---------- *)

type value = F of float | I of int

type metric = { name : string; unit_ : string; value : value; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let print_table title ms =
  Printf.printf "%s\n%-28s %16s  %-6s %s\n" title "metric" "value" "unit"
    "samples";
  List.iter
    (fun m ->
      let v =
        match m.value with
        | F f -> Printf.sprintf "%.6g" f
        | I i -> string_of_int i
      in
      Printf.printf "%-28s %16s  %-6s %d\n" m.name v m.unit_ m.samples)
    ms

let result_json ~correct ~attempted ~failed ms =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               ( m.name,
                 J.Obj
                   [
                     ( "value",
                       match m.value with F f -> J.Float f | I i -> J.Int i );
                     ("unit", J.String m.unit_);
                   ] ))
             ms) );
    ]

(* ---------- one-shot workloads: Table 2 cells ---------- *)

type engine =
  | Bsim
  | Cov
  | One
  | All of int  (** BSAT all-solutions under a solution cap *)
  | Certified
  | Encode  (** traced only: [Muxed.build] on a fresh solver, as BSAT runs it *)

let engine_name = function
  | Bsim -> "bsim"
  | Cov -> "cov"
  | One -> "one"
  | All _ -> "all"
  | Certified -> "certified"
  | Encode -> "encode"

let cap = 2000
let large_cap = 4

type cell = {
  label : string;
  m : int;
  k : int;
  faulty : Netlist.Circuit.t;
  tests : Sim.Testgen.test list;
  engines : engine list;
}

type answer =
  | Bsim_r of Diagnosis.Bsim.result
  | Cov_r of Diagnosis.Cover.result
  | One_r of int list option
  | All_r of Bsat.result
  | Encode_r of int  (** variables *)

type op = { cell : int; engine : engine }
type result = { op : op; secs : float; answer : answer }

(* A one-shot workload: groups of cells (a circuit, its test counts)
   with the engines run on each cell of the group. *)
type oneshot = (string * int list * engine list) list

(* The Table 2 cells, in three regimes:
   - g1423 and g6669: thousands of short solver calls (1-3 conflicts
     each) where the enumeration loop and per-call overhead do the work;
     COV hits its cap on g6669 m = 32, whose BSAT run is left out (its
     final UNSAT call alone takes 5 s);
   - certified BSAT on g1423 m = 4, 8: the only calls where DRUP checking
     blocks the result;
   - g38417 m = 16: 144k variables, a few solver calls with millions of
     propagations; encoding and inprocessing dominate. *)
let oneshot_of = function
  | "table2" ->
      Some
        [
          (* the plain run doubles as the certified run's twin *)
          ("g1423", [ 4; 8 ], [ Bsim; Cov; One; All cap; Certified ]);
          ("g1423", [ 16 ], [ Bsim; Cov; One; All cap ]);
          ("g6669", [ 32 ], [ Bsim; Cov; One ]);
          ("g38417", [ 16 ], [ One; All large_cap ]);
        ]
  | _ -> None

let cell_keys (w : oneshot) =
  Array.of_list
    (List.concat_map (fun (l, ms, es) -> List.map (fun m -> (l, m, es)) ms) w)

(* The standalone calls a traced pass adds to split time into layers.
   They run first on their cell, right before the calls they are
   subtracted from, so that both see the same state of the machine. *)
let extras engines =
  if List.exists (function One | All _ | Certified -> true | _ -> false) engines
  then [ Encode ]
  else []

let is_extra = ( = ) Encode

(* circuit build, error injection and test generation for the cells;
   [testgen] accumulates the [Workload.prepare] time.  A circuit in
   several groups is prepared once. *)
let prepare_cells ?testgen (w : oneshot) =
  let specs = W.paper_specs ~scale in
  let prepared = Hashtbl.create 4 in
  let prepare label =
    match Hashtbl.find_opt prepared label with
    | Some sp -> sp
    | None ->
        let spec = List.find (fun s -> s.W.label = label) specs in
        let p, dt = time (fun () -> W.prepare spec) in
        Option.iter (fun r -> r := !r +. dt) testgen;
        Hashtbl.add prepared label (spec, p);
        (spec, p)
  in
  List.concat_map
    (fun (label, ms, engines) ->
      let spec, p = prepare label in
      List.map
        (fun m ->
          {
            label;
            m;
            k = spec.W.num_errors;
            faulty = p.W.faulty;
            tests = List.filteri (fun i _ -> i < m) p.W.tests;
            engines;
          })
        ms)
    w
  |> Array.of_list

(* The seed fixes the order in which a pass visits the cells.  The
   cells are the paper's fixed Table 2 instances, so their reference
   answers are known (see [Reference]) and every seed does the same
   solver work. *)
let oneshot_plan w ~seed ~traced =
  let keys = cell_keys w in
  List.concat_map
    (fun cell ->
      let _, _, engines = keys.(cell) in
      let engines = if traced then extras engines @ engines else engines in
      List.map (fun engine -> { cell; engine }) engines)
    (permute seed (List.init (Array.length keys) Fun.id))

let render_oneshot_plan w ops =
  let keys = cell_keys w in
  String.concat " "
    (List.map
       (fun o ->
         let l, m, _ = keys.(o.cell) in
         Printf.sprintf "%s/m%d/%s" l m (engine_name o.engine))
       ops)

let bsat_all ?certify n c =
  All_r (Bsat.diagnose ?certify ~max_solutions:n ~k:c.k c.faulty c.tests)

let run_op c = function
  | Bsim -> Bsim_r (Diagnosis.Bsim.diagnose c.faulty c.tests)
  | Cov ->
      Cov_r
        (Diagnosis.Cover.diagnose ~max_solutions:cap ~k:c.k c.faulty c.tests)
  | One -> One_r (Bsat.first_solution ~k:c.k c.faulty c.tests)
  | All n -> bsat_all n c
  | Certified -> bsat_all ~certify:true cap c
  | Encode ->
      let solver = Sat.Solver.create () in
      ignore (Encode.Muxed.build ~max_k:c.k solver c.faulty c.tests);
      Encode_r (Sat.Solver.num_vars solver)

(* The clause count needs a mirror, which slows the build, so it is
   taken outside the timed passes. *)
let clause_count c =
  let mirror = Sat.Cnf.create () in
  let solver = Sat.Solver.create () in
  ignore (Encode.Muxed.build ~mirror ~max_k:c.k solver c.faulty c.tests);
  Sat.Cnf.clause_count mirror

(* Each cell is one diagnosis job: its calls run back to back, each
   paying for the garbage the calls before it left.  The heap is
   compacted before each cell, outside the timing, because the seed
   orders the cells: otherwise a cell's time would depend on which cell
   the seed put before it. *)
let oneshot_pass cells ops () =
  let housekeeping = ref 0.0 and last = ref (-1) in
  let rs =
    List.map
      (fun op ->
        if op.cell <> !last then begin
          let (), dt = time Gc.compact in
          housekeeping := !housekeeping +. dt;
          last := op.cell
        end;
        let answer, secs = time (fun () -> run_op cells.(op.cell) op.engine) in
        { op; secs; answer })
      ops
  in
  (rs, !housekeeping)

(* ---------- one-shot checks ---------- *)

let find_ref (c : cell) =
  List.find_opt
    (fun (r : Reference.cell) -> r.Reference.label = c.label && r.m = c.m)
    Reference.cells

let valid c sols =
  List.for_all (fun s -> Diagnosis.Validity.check_sat c.faulty c.tests s) sols

let check_enumeration ~what ~valid_sol ~truncated ~calls sols = function
  | Some (Reference.Complete r) ->
      if truncated then Some (what ^ ": truncated")
      else if List.length sols <> r.solutions then
        Some (Printf.sprintf "%s: %d solutions, want %d" what
                (List.length sols) r.solutions)
      else if r.calls > 0 && calls <> r.calls then
        Some (Printf.sprintf "%s: %d solver calls, want %d" what calls r.calls)
      else if digest_solutions sols <> r.digest then
        Some (what ^ ": solution set differs from the reference")
      else None
  | Some (Reference.Capped n) ->
      if not truncated then Some (what ^ ": not truncated at the cap")
      else if List.length sols <> n then
        Some (Printf.sprintf "%s: %d solutions, want the cap %d" what
                (List.length sols) n)
      else if not (List.for_all valid_sol sols) then
        Some (what ^ ": a capped solution is not valid")
      else None
  | None -> Some (what ^ ": no reference")

(* [None] when the answer is right, else the reason *)
let check_result cells r =
  let c = cells.(r.op.cell) in
  match find_ref c with
  | None -> Some (Printf.sprintf "%s m=%d: no reference" c.label c.m)
  | Some ref_ -> (
      match (r.answer, r.op.engine) with
      | Bsim_r b, _ ->
          if List.length b.Diagnosis.Bsim.union = ref_.union then None
          else Some "bsim: union size differs"
      | Cov_r v, _ ->
          check_enumeration ~what:"cov"
            ~valid_sol:(fun s ->
              Diagnosis.Cover.covers s v.Diagnosis.Cover.bsim.candidate_sets)
            ~truncated:v.Diagnosis.Cover.truncated ~calls:0
            v.Diagnosis.Cover.solutions ref_.cov
      | One_r None, _ -> Some "one: no solution"
      | One_r (Some s), _ ->
          if List.length s <> ref_.min_size then
            Some "one: not of minimum size"
          else if not (valid c [ s ]) then Some "one: not a valid correction"
          else None
      | All_r b, engine ->
          let expect =
            match (engine, ref_.bsat) with
            | All n, Some (Reference.Capped _) -> Some (Reference.Capped n)
            | _, e -> e
          in
          let cert =
            if engine = Certified && b.Bsat.cert_checks = 0 then
              Some "certified: no checks ran"
            else None
          in
          if cert <> None then cert
          else
            check_enumeration ~what:(engine_name engine)
              ~valid_sol:(fun s -> valid c [ s ])
              ~truncated:b.Bsat.truncated ~calls:b.Bsat.solver_calls
              b.Bsat.solutions expect
      | Encode_r v, _ -> if v > 0 then None else Some "encode: empty instance")

(* The deterministic part of an answer: equal across passes of one run. *)
let signature r =
  let body =
    match r.answer with
    | Bsim_r b -> string_of_int (List.length b.Diagnosis.Bsim.union)
    | Cov_r v -> digest_solutions v.Diagnosis.Cover.solutions
    | One_r s -> digest_solutions (Option.to_list s)
    | All_r b ->
        Printf.sprintf "%s calls=%d props=%d checks=%d fails=%d"
          (digest_solutions b.Bsat.solutions)
          b.Bsat.solver_calls b.Bsat.stats.Sat.Solver.propagations
          b.Bsat.cert_checks (List.length b.Bsat.cert_failures)
    | Encode_r v -> string_of_int v
  in
  Printf.sprintf "%d/%s %s" r.op.cell (engine_name r.op.engine) body

(* ---------- one-shot metrics ---------- *)

(* timings are [(op, seconds)] pairs in plan order *)
let engine_secs pred timings =
  sum
    (List.filter_map
       (fun (op, secs) -> if pred op.engine then Some secs else None)
       timings)

let is_all = function All _ | Certified -> true | _ -> false

(* per-cell latency: the workload's own engine calls on one cell *)
let cell_latencies cells timings =
  List.init (Array.length cells) (fun cell ->
      engine_secs
        (fun e -> not (is_extra e))
        (List.filter (fun (op, _) -> op.cell = cell) timings))

let time_layers =
  [
    "netlist.parse_s";
    "bsim.trace_s";
    "cover.enumerate_s";
    "encode.build_s";
    "sat.first_solve_s";
    "bsat.enumerate_s";
    "certify.overhead_s";
    "serve.handle_s";
  ]

(* Split a traced pass's call times into layers.  A call into a higher
   layer also runs the lower ones; their share is the time of the same
   lower-layer call made on its own on the same cell (BSIM inside COV,
   the encoding inside BSAT, the plain run inside a certified one, which
   is why every certified cell also runs plain BSAT). *)
let oneshot_layers timings =
  let tbl = Hashtbl.create 8 in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let add k v = Hashtbl.replace tbl k (get k +. v) in
  let alone engine cell =
    engine_secs (( = ) engine)
      (List.filter (fun (op, _) -> op.cell = cell) timings)
  in
  List.iter
    (fun (op, secs) ->
      let e = alone Encode op.cell in
      match op.engine with
      | Bsim -> add "bsim.trace_s" secs
      | Cov ->
          let b = alone Bsim op.cell in
          add "bsim.trace_s" b;
          add "cover.enumerate_s" (secs -. b)
      | Encode -> add "encode.build_s" secs
      | One ->
          add "encode.build_s" e;
          add "sat.first_solve_s" (secs -. e)
      | All _ ->
          add "encode.build_s" e;
          add "bsat.enumerate_s" (secs -. e)
      | Certified ->
          let p = alone (All cap) op.cell in
          add "encode.build_s" e;
          add "bsat.enumerate_s" (p -. e);
          add "certify.overhead_s" (secs -. p))
    timings;
  get

(* counters of a traced pass: integer counts, then ratios *)
let oneshot_counters rs =
  let ints f = List.fold_left (fun n r -> n + f r) 0 rs in
  let bsat ?(only = is_all) f =
    ints (fun r ->
        match r.answer with All_r b when only r.op.engine -> f b | _ -> 0)
  in
  let stat f = bsat (fun b -> f b.Bsat.stats) in
  let certified = ( = ) Certified in
  let props = stat (fun s -> s.Sat.Solver.propagations) in
  let calls = bsat (fun b -> b.Bsat.solver_calls) in
  let sols = bsat (fun b -> List.length b.Bsat.solutions) in
  let all_secs =
    engine_secs is_all (List.map (fun r -> (r.op, r.secs)) rs)
  in
  ( [
      ( "bsim.union_size",
        ints (fun r ->
            match r.answer with
            | Bsim_r b -> List.length b.Diagnosis.Bsim.union
            | _ -> 0) );
      ( "cover.solutions",
        ints (fun r ->
            match r.answer with
            | Cov_r v -> List.length v.Diagnosis.Cover.solutions
            | _ -> 0) );
      ( "encode.vars",
        ints (fun r -> match r.answer with Encode_r v -> v | _ -> 0) );
      ("sat.propagations", props);
      ("sat.conflicts", stat (fun s -> s.Sat.Solver.conflicts));
      ("sat.decisions", stat (fun s -> s.Sat.Solver.decisions));
      ("sat.eliminated", stat (fun s -> s.Sat.Solver.eliminated));
      ("sat.subsumed", stat (fun s -> s.Sat.Solver.subsumed));
      ("sat.strengthened", stat (fun s -> s.Sat.Solver.strengthened));
      ("sat.vivified", stat (fun s -> s.Sat.Solver.vivified));
      ("bsat.solver_calls", calls);
      ("bsat.solutions", sols);
      ("certify.checks", bsat ~only:certified (fun b -> b.Bsat.cert_checks));
      ( "certify.failures",
        bsat ~only:certified (fun b -> List.length b.Bsat.cert_failures) );
    ],
    [
      ( "sat.propagations_per_s",
        if all_secs > 0.0 then float props /. all_secs else 0.0 );
      ( "bsat.solutions_per_call",
        if calls > 0 then float sols /. float calls else 0.0 );
    ] )

(* ---------- serve-mixed: a closed-loop client of an in-process server *)

type shape = { circuit : string; errors : int; seed : int }

let shape circuit errors seed = { circuit; errors; seed }

(* Request shapes whose enumeration completes well under the solution
   cap, chosen so one pass over the stream takes a few seconds.  They
   travel in fixed pairs, one batch frame each, so every seed puts the
   same work into each frame. *)
let hot =
  [
    (shape "g38417" 1 7, shape "g1423" 3 2);
    (shape "g38417" 1 10, shape "g1423" 3 3);
    (shape "g6669" 2 8, shape "g6669" 2 7);
  ]

let tail =
  [
    (shape "g6669" 2 4, shape "g1423" 3 1);
    (shape "g1423" 3 4, shape "g38417" 1 9);
    (shape "g1423" 1 1, shape "g6669" 1 3);
  ]

let lo = 4 (* tests on first contact *)
let hi = 8 (* tests after growth *)
let serve_jobs = 2
let served_cap = 1000

(* The context cache holds exactly the hot shapes, so the tail phase
   evicts every one of them and the next phase misses on each: every
   seed gets the same cold, warm and growth requests.  The seed orders
   the frames within each phase and the two requests within each
   frame. *)
let phases =
  [
    (hot, lo) (* first contact: cold *);
    (hot, lo) (* repeats: warm *);
    (hot, hi) (* growth: warm, Incremental.add_tests *);
    (hot, hi) (* repeats: warm *);
    (tail, lo) (* one-offs: cold, evicting the hot contexts *);
    (hot, hi) (* eviction misses: cold *);
    (hot, hi) (* repeats: warm *);
  ]

let hot_shapes = List.concat_map (fun (a, b) -> [ a; b ]) hot

let serve_plan ~seed =
  let st = Random.State.make [| seed; List.length phases |] in
  List.concat_map
    (fun (pairs, tests) ->
      pairs
      |> List.map (fun (a, b) ->
             let a, b = if Random.State.bool st then (a, b) else (b, a) in
             [ (a, tests); (b, tests) ])
      |> shuffle st)
    phases

let render_serve_plan frames =
  String.concat " | "
    (List.map
       (fun f ->
         String.concat " "
           (List.map
              (fun (s, t) ->
                Printf.sprintf "%s:%d:%d@%d" s.circuit s.errors s.seed t)
              f))
       frames)

let request s tests =
  {
    Protocol.id = None;
    circuit = s.circuit;
    faulty = None;
    errors = s.errors;
    seed = s.seed;
    k = None;
    tests;
    max_solutions = served_cap;
    budget = None;
    certify = false;
    stats = false;
  }

(* The circuits travel as .bench text and are parsed on the request
   path whenever the server's circuit cache misses. *)
let bench_texts () =
  List.map
    (fun s -> (s.W.label, Netlist.Bench_format.to_string s.W.circuit))
    (W.paper_specs ~scale)

let parse_text texts name =
  match List.assoc_opt name texts with
  | Some text -> (Netlist.Bench_format.parse_string ~name text).circuit
  | None -> failwith ("unknown circuit " ^ name)

let make_server texts parse_s =
  let resolve name =
    let c, dt = time (fun () -> parse_text texts name) in
    parse_s := !parse_s +. dt;
    c
  in
  Server.create ~jobs:serve_jobs ~context_capacity:(List.length hot_shapes)
    ~circuit_capacity:2 resolve

let counter server name =
  Option.value ~default:0 (List.assoc_opt name (Obs.counters (Server.obs server)))

(* the server's counters and sketches after a pass *)
let serve_counters server =
  let sk name = List.assoc name (Server.sketches server) in
  let queue =
    Obs.Sketch.merge (sk "queue_wait_cold_us") (sk "queue_wait_warm_us")
  in
  let hits = counter server "cache/context/hits"
  and misses = counter server "cache/context/misses" in
  ( [
      ("serve.context_hits", hits);
      ("serve.context_misses", misses);
      ("serve.context_evictions", counter server "cache/context/evictions");
      ("serve.circuit_hits", counter server "cache/circuit/hits");
      ("serve.circuit_misses", counter server "cache/circuit/misses");
    ],
    [
      ("serve.queue_wait_p50_ms", Obs.Sketch.quantile queue 0.5 /. 1000.0);
      ("serve.queue_wait_p90_ms", Obs.Sketch.quantile queue 0.9 /. 1000.0);
      ( "serve.context_hit_ratio",
        if hits + misses > 0 then float hits /. float (hits + misses) else 0.0 );
      ( "serve.alloc_words_p50",
        Obs.Sketch.quantile (sk "gc_allocated_words") 0.5 );
      ( "serve.request_conflicts_p50",
        Obs.Sketch.quantile (sk "request_conflicts") 0.5 );
    ] )

type served_r = { shape : shape; tests : int; latency : float; resp : J.t }

(* A pass keeps numbers, not the server: its warm contexts would
   otherwise stay live across passes. *)
type serve_pass_r = {
  reqs : served_r list;
  frame_secs : float list;
  counts : (string * int) list;
  ratios : (string * float) list;
  conflicts : int;
  parse_s : float;
  handle_s : float;
}

let serve_pass texts frames () =
  let parse_s = ref 0.0 and handle_s = ref 0.0 and frame_secs = ref [] in
  let server = make_server texts parse_s in
  let reqs =
    List.concat_map
      (fun frame ->
        let requests = List.map (fun (s, t) -> request s t) frame in
        let (resp, _), dt =
          time (fun () ->
              Server.handle server (Protocol.Batch { id = None; requests }))
        in
        handle_s := !handle_s +. dt;
        frame_secs := dt :: !frame_secs;
        let resps =
          match J.member "responses" resp with
          | Some (J.Arr l) when List.length l = List.length frame -> l
          | _ -> List.map (fun _ -> resp) frame
        in
        List.map2
          (fun (shape, tests) resp -> { shape; tests; latency = dt; resp })
          frame resps)
      frames
  in
  let counts, ratios = serve_counters server in
  ( {
      reqs;
      frame_secs = List.rev !frame_secs;
      counts;
      ratios;
      conflicts =
        Obs.Sketch.sum (List.assoc "request_conflicts" (Server.sketches server));
      parse_s = !parse_s;
      handle_s = !handle_s;
    },
    0.0 )

let is_warm r = J.member "warm" r.resp = Some (J.Bool true)

let find_served s tests =
  List.find_opt
    (fun (r : Reference.served) ->
      r.Reference.circuit = s.circuit && r.errors = s.errors && r.seed = s.seed
      && r.tests = tests)
    Reference.served

let check_served r =
  match
    ( J.member "ok" r.resp,
      J.member "solutions" r.resp,
      J.member "truncated" r.resp,
      find_served r.shape r.tests )
  with
  | Some (J.Bool true), Some (J.Arr sols as j), Some (J.Bool false), Some ref_
    ->
      if
        List.length sols = ref_.Reference.solutions
        && Digest.to_hex (Digest.string (J.to_string j)) = ref_.digest
      then None
      else Some "served answer differs from the one-shot reference"
  | _, _, _, None -> Some "no reference"
  | Some (J.Bool true), _, Some (J.Bool true), _ -> Some "truncated"
  | _ -> Some ("bad response " ^ J.to_string r.resp)

let serve_signature p =
  let answers =
    List.map
      (fun r ->
        Printf.sprintf "%b %s" (is_warm r)
          (Option.fold ~none:"-" ~some:J.to_string
             (J.member "solutions" r.resp)))
      p.reqs
  in
  String.concat "\n"
    (Printf.sprintf "%s conflicts=%d"
       (String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p.counts))
       p.conflicts
    :: answers)

(* ---------- runs ---------- *)

type report = {
  setup_s : float list;  (** set-up samples *)
  passes : float list;  (** untraced pass wall times, as measured *)
  best_pass : float;  (** one pass with each operation at its fastest *)
  items : float list;  (** fastest latency of each cell or request *)
  attempted : int;
  failed : int;
  reasons : string list;
  headline : metric list;  (** workload-specific, printed but not gated *)
  layers : (string * value) list;  (** traced runs only *)
  wall_traced : float;
  other_s : float;
}

(* Check each distinct operation once, and every repeat of it against
   the first answer's deterministic signature. *)
let make_checker () =
  let seen = Hashtbl.create 64 in
  fun key signature check ->
    match Hashtbl.find_opt seen key with
    | Some (sg, verdict) ->
        if sg <> signature then Some (key ^ ": work differs between passes")
        else verdict
    | None ->
        let verdict = check () in
        Hashtbl.add seen key (signature, verdict);
        verdict

(* the pass with the median wall time (the lower one of an even count) *)
let median_pass passes =
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) passes in
  List.nth sorted ((List.length sorted - 1) / 2)

(* The layer times of a traced pass and [other_s], the rest of its wall
   time, so the two add up to the wall time by construction.  What can
   fail is the sign: the calls must fit inside the pass, and a layer
   derived as the difference of two calls (COV minus BSIM, BSAT minus
   the build, certified minus plain, [Server.handle] minus parsing)
   must not be negative. *)
let split_layers ~wall_traced ~calls layer =
  let layers = List.map (fun k -> (k, layer k)) time_layers in
  let other = wall_traced -. calls in
  let negative (_, v) = v < 0.0 in
  (match List.find_opt negative (("other_s", other) :: layers) with
  | Some (k, v) ->
      Printf.eprintf "perfbench: layer split is inconsistent (%s = %.9f s)\n"
        k v;
      exit 1
  | None -> ());
  (List.map (fun (k, v) -> (k, F v)) layers, other)

let typed counts ratios =
  List.map (fun (k, v) -> (k, I v)) counts
  @ List.map (fun (k, v) -> (k, F v)) ratios

(* what a one-shot pass leaves behind once it is checked *)
type oneshot_summary = {
  timings : (op * float) list;
  counts : (string * int) list;
  ratios : (string * float) list;
  bad_cells : int;
  why : string list;
}

let summarize_oneshot checker cells rs =
  let why = ref [] and bad_cells = ref 0 in
  Array.iteri
    (fun cell c ->
      let verdicts =
        List.filter_map
          (fun r ->
            if r.op.cell <> cell then None
            else
              checker
                (Printf.sprintf "%s/m%d/%s" c.label c.m (engine_name r.op.engine))
                (signature r)
                (fun () -> check_result cells r))
          rs
      in
      if verdicts <> [] then begin
        incr bad_cells;
        why := verdicts @ !why
      end)
    cells;
  let counts, ratios = oneshot_counters rs in
  {
    timings = List.map (fun r -> (r.op, r.secs)) rs;
    counts;
    ratios;
    bad_cells = !bad_cells;
    why = !why;
  }

let run_oneshot w ~seed ~seconds ~traced =
  let cells, setup_s, between = sampled_setup (fun () -> prepare_cells w) in
  let summarize = summarize_oneshot (make_checker ()) cells in
  let t0 = wall () in
  let deadline = t0 +. seconds in
  let untraced =
    run_passes ~min:1
      ~deadline:(if traced then t0 else deadline)
      ~summarize ~between
      (oneshot_pass cells (oneshot_plan w ~seed ~traced:false))
  in
  let traced_passes =
    if traced then
      run_passes ~min:1 ~deadline ~summarize ~between
        (oneshot_pass cells (oneshot_plan w ~seed ~traced:true))
    else []
  in
  let all = List.map fst (untraced @ traced_passes) in
  (* every pass runs the same plan, so timings line up by position *)
  let best =
    let first = (fst (List.hd untraced)).timings in
    List.combine (List.map fst first)
      (fastest (List.map (fun (p, _) -> List.map snd p.timings) untraced))
  in
  let secs name pred =
    metric ~samples:(List.length untraced) name "s" (F (engine_secs pred best))
  in
  let has e = Array.exists (fun c -> List.mem e c.engines) cells in
  let cert_share =
    let counts = (fst (List.hd untraced)).counts in
    let n = List.assoc "certify.checks" counts in
    if n = 0 then 0.0
    else float (List.assoc "certify.failures" counts) /. float n
  in
  let headline =
    List.filter_map Fun.id
      [
        (if has Bsim then Some (secs "bsim_s" (( = ) Bsim)) else None);
        (if has Cov then Some (secs "cov_all_s" (( = ) Cov)) else None);
        (if has One then Some (secs "bsat_one_s" (( = ) One)) else None);
        Some (secs "bsat_all_s" is_all);
        (if has Certified then
           Some (metric "cert_failure_share" "ratio" (F cert_share))
         else None);
      ]
  in
  let layers, wall_traced, other_s =
    match traced_passes with
    | [] -> ([], 0.0, 0.0)
    | _ ->
        let p, wall_traced = median_pass traced_passes in
        let calls = sum (List.map snd p.timings) in
        let timed, other =
          split_layers ~wall_traced ~calls (oneshot_layers p.timings)
        in
        let testgen = ref 0.0 in
        ignore (prepare_cells ~testgen w);
        let clauses =
          Array.fold_left
            (fun n c ->
              if List.mem Encode (extras c.engines) then n + clause_count c
              else n)
            0 cells
        in
        ( (("sim.testgen_s", F !testgen) :: timed)
          @ typed (("encode.clauses", clauses) :: p.counts) p.ratios,
          wall_traced,
          other )
  in
  {
    setup_s = !setup_s;
    passes = List.map snd untraced;
    best_pass = sum (List.map snd best);
    items = cell_latencies cells best;
    attempted = Array.length cells * List.length all;
    failed = List.fold_left (fun n p -> n + p.bad_cells) 0 all;
    reasons = List.concat_map (fun p -> p.why) all;
    headline;
    layers;
    wall_traced;
    other_s;
  }

(* what a served pass leaves behind once it is checked *)
type serve_summary = {
  latencies : float list;  (** per request, in stream order *)
  warm : bool list;
  frames : float list;
  s_counts : (string * int) list;
  s_ratios : (string * float) list;
  parse : float;
  handle : float;
  bad_requests : int;
  s_why : string list;
}

let summarize_serve checker p =
  let why =
    List.filter_map
      (fun r ->
        Option.map
          (Printf.sprintf "%s:%d:%d@%d: %s" r.shape.circuit r.shape.errors
             r.shape.seed r.tests)
          (check_served r))
      p.reqs
  in
  let why =
    match checker "pass" (serve_signature p) (fun () -> None) with
    | Some w -> w :: why
    | None -> why
  in
  {
    latencies = List.map (fun r -> r.latency) p.reqs;
    warm = List.map is_warm p.reqs;
    frames = p.frame_secs;
    s_counts = p.counts;
    s_ratios = p.ratios;
    parse = p.parse_s;
    handle = p.handle_s;
    bad_requests = min (List.length p.reqs) (List.length why);
    s_why = why;
  }

let run_serve ~seed ~seconds ~traced =
  let frames = serve_plan ~seed in
  let texts, setup_s, between =
    sampled_setup (fun () ->
        let texts = bench_texts () in
        ignore (make_server texts (ref 0.0));
        texts)
  in
  let summarize = summarize_serve (make_checker ()) in
  let t0 = wall () in
  let deadline = t0 +. seconds in
  let untraced =
    run_passes ~min:1
      ~deadline:(if traced then t0 else deadline)
      ~summarize ~between (serve_pass texts frames)
  in
  let traced_passes =
    if traced then
      run_passes ~min:1 ~deadline ~summarize ~between (serve_pass texts frames)
    else []
  in
  let all = List.map fst (untraced @ traced_passes) in
  let samples =
    List.concat_map (fun (p, _) -> List.combine p.warm p.latencies) untraced
  in
  let lat pred q =
    1000.0
    *. quantile q
         (List.filter_map
            (fun (warm, l) -> if pred warm then Some l else None)
            samples)
  in
  let n = List.length samples in
  let nw = List.length (List.filter fst samples) in
  let headline =
    [
      metric ~samples:n "request_p50_ms" "ms" (F (lat (fun _ -> true) 0.5));
      metric ~samples:n "request_p90_ms" "ms" (F (lat (fun _ -> true) 0.9));
      metric ~samples:(n - nw) "cold_request_p50_ms" "ms"
        (F (lat not 0.5));
      metric ~samples:nw "warm_request_p50_ms" "ms" (F (lat Fun.id 0.5));
      metric ~samples:(List.length untraced) "requests_per_s" "1/s"
        (F (float n /. sum (List.map snd untraced)));
    ]
  in
  let layers, wall_traced, other_s =
    match traced_passes with
    | [] -> ([], 0.0, 0.0)
    | _ ->
        let p, wall_traced = median_pass traced_passes in
        let layer = function
          | "netlist.parse_s" -> p.parse
          | "serve.handle_s" -> p.handle -. p.parse
          | _ -> 0.0
        in
        let timed, other = split_layers ~wall_traced ~calls:p.handle layer in
        (timed @ typed p.s_counts p.s_ratios, wall_traced, other)
  in
  {
    setup_s = !setup_s;
    passes = List.map snd untraced;
    best_pass = sum (fastest (List.map (fun (p, _) -> p.frames) untraced));
    items = fastest (List.map (fun (p, _) -> p.latencies) untraced);
    attempted = List.fold_left (fun n p -> n + List.length p.latencies) 0 all;
    failed = List.fold_left (fun n p -> n + p.bad_requests) 0 all;
    reasons = List.concat_map (fun p -> p.s_why) all;
    headline;
    layers;
    wall_traced;
    other_s;
  }

(* ---------- the metric catalogue (mirrors BENCHMARK.json) ---------- *)

let per_layer =
  [
    ("netlist.parse_s", "s"); ("sim.testgen_s", "s"); ("bsim.trace_s", "s");
    ("bsim.union_size", "count"); ("cover.enumerate_s", "s");
    ("cover.solutions", "count"); ("encode.build_s", "s");
    ("encode.vars", "count"); ("encode.clauses", "count");
    ("sat.first_solve_s", "s"); ("sat.propagations", "count");
    ("sat.conflicts", "count"); ("sat.decisions", "count");
    ("sat.propagations_per_s", "1/s"); ("sat.eliminated", "count");
    ("sat.subsumed", "count"); ("sat.strengthened", "count");
    ("sat.vivified", "count"); ("bsat.enumerate_s", "s");
    ("bsat.solver_calls", "count"); ("bsat.solutions", "count");
    ("bsat.solutions_per_call", "ratio"); ("certify.overhead_s", "s");
    ("certify.checks", "count"); ("certify.failures", "count");
    ("serve.handle_s", "s"); ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_p90_ms", "ms"); ("serve.context_hits", "count");
    ("serve.context_misses", "count"); ("serve.context_evictions", "count");
    ("serve.context_hit_ratio", "ratio"); ("serve.circuit_hits", "count");
    ("serve.circuit_misses", "count"); ("serve.alloc_words_p50", "words");
    ("serve.request_conflicts_p50", "count"); ("other_s", "s");
    ("trace.wall_s", "s"); ("trace.overhead_s", "s");
  ]

let end_to_end r =
  [
    metric ~samples:(List.length r.setup_s) "setup_s" "s"
      (F (median r.setup_s));
    metric ~samples:(List.length r.passes) "wall_s" "s" (F r.best_pass);
    metric ~samples:(List.length r.items) "op_p50_ms" "ms"
      (F (1000.0 *. median r.items));
  ]

(* Printed, not gated: with two worker domains the top heap depends on
   when each domain's collector runs, and it spread more than any bound
   allows across runs of the same work. *)
let peak_heap () =
  metric "peak_heap_mb" "MB"
    (F
       (float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
       /. 1048576.0))

let layer_metrics r =
  (* the untraced pass picked the way the traced one is *)
  let untraced = snd (median_pass (List.map (fun t -> ((), t)) r.passes)) in
  let extra =
    [
      ("other_s", F r.other_s);
      ("trace.wall_s", F r.wall_traced);
      ("trace.overhead_s", F (r.wall_traced -. untraced));
    ]
  in
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name (r.layers @ extra) with
        | Some v -> v
        | None -> if unit_ = "count" then I 0 else F 0.0
      in
      metric name unit_ value)
    per_layer

(* ---------- reference recording ---------- *)

let record () =
  let specs = W.paper_specs ~scale in
  (* every cell of every one-shot workload, with all engines run on it *)
  let cells = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Array.iter
        (fun (l, m, es) ->
          let have =
            Option.value ~default:[] (Hashtbl.find_opt cells (l, m))
          in
          Hashtbl.replace cells (l, m) (have @ es))
        (cell_keys (Option.get (oneshot_of name))))
    [ "table2" ];
  let enumeration ~truncated ~calls sols =
    if truncated then Printf.sprintf "Some (Capped %d)" (List.length sols)
    else
      Printf.sprintf
        "Some (Complete { solutions = %d; calls = %d; digest = %S })"
        (List.length sols) calls (digest_solutions sols)
  in
  print_string "let cells : cell list =\n  [\n";
  List.iter
    (fun ((label, m), engines) ->
      let spec = List.find (fun s -> s.W.label = label) specs in
      let p = W.prepare spec in
      let k = spec.W.num_errors and faulty = p.W.faulty in
      let tests = List.filteri (fun i _ -> i < m) p.W.tests in
      let union = List.length (Diagnosis.Bsim.diagnose faulty tests).union in
      let min_size =
        Option.fold ~none:0 ~some:List.length
          (Bsat.first_solution ~k faulty tests)
      in
      let cov =
        if not (List.mem Cov engines) then "None"
        else
          let c = Diagnosis.Cover.diagnose ~max_solutions:cap ~k faulty tests in
          enumeration ~truncated:c.truncated ~calls:0 c.solutions
      in
      let bsat =
        if List.mem (All cap) engines || List.mem Certified engines then
          let b = Bsat.diagnose ~max_solutions:cap ~k faulty tests in
          enumeration ~truncated:b.truncated ~calls:b.solver_calls b.solutions
        else if List.mem (All large_cap) engines then
          Printf.sprintf "Some (Capped %d)" large_cap
        else "None"
      in
      Printf.printf
        "    { label = %S; m = %d; union = %d; min_size = %d;\n\
        \      cov = %s;\n\
        \      bsat = %s };\n%!"
        label m union min_size cov bsat)
    (List.sort compare (List.of_seq (Hashtbl.to_seq cells)));
  print_string "  ]\n\nlet served : served list =\n  [\n";
  let texts = bench_texts () in
  let shapes =
    List.sort_uniq compare
      (List.concat_map
         (fun (pairs, tests) ->
           List.concat_map (fun (a, b) -> [ (a, tests); (b, tests) ]) pairs)
         phases)
  in
  List.iter
    (fun (s, tests) ->
      let golden = parse_text texts s.circuit in
      let faulty, _ =
        Sim.Injector.inject ~seed:s.seed ~num_errors:s.errors golden
      in
      let ts =
        Sim.Testgen.generate ~seed:(s.seed + 1) ~max_vectors:(1 lsl 16)
          ~wanted:tests ~golden ~faulty
      in
      let b =
        Bsat.diagnose ~max_solutions:served_cap ~k:(max 1 s.errors) faulty ts
      in
      if b.truncated || ts = [] then
        Printf.eprintf "warning: %s:%d:%d@%d is truncated or has no tests\n"
          s.circuit s.errors s.seed tests;
      let names sol =
        J.Arr
          (List.map (fun g -> J.String faulty.Netlist.Circuit.names.(g)) sol)
      in
      let j = J.Arr (List.map names b.solutions) in
      Printf.printf
        "    { circuit = %S; errors = %d; seed = %d; tests = %d;\n\
        \      solutions = %d; digest = %S };\n%!"
        s.circuit s.errors s.seed tests (List.length b.solutions)
        (Digest.to_hex (Digest.string (J.to_string j))))
    shapes;
  print_string "  ]\n"

(* ---------- command line ---------- *)

let workloads = [ "table2"; "serve-mixed" ]

let plan_text workload seed =
  match oneshot_of workload with
  | Some w -> render_oneshot_plan w (oneshot_plan w ~seed ~traced:false)
  | None -> render_serve_plan (serve_plan ~seed)

(* The same seed must give the same plan, and the next seed another. *)
let check_plans workload seed =
  let p = plan_text workload seed in
  if p <> plan_text workload seed then Error "the same seed gave two plans"
  else if plan_text workload (seed + 1) = p then
    Error "the next seed gave the same plan"
  else Ok ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and record_mode = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of: " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed section");
      ("--trace", Arg.Set_int trace, " 1 = traced run, per-layer metrics");
      ( "--record",
        Arg.Set record_mode,
        " print the reference lists of reference.ml" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";
  if !record_mode then (record (); exit 0);
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S (want one of: %s)\n"
      !workload (String.concat ", " workloads);
    exit 2
  end;
  (match check_plans !workload !seed with
  | Ok () -> ()
  | Error why ->
      Printf.eprintf "perfbench: plan self-check failed: %s\n" why;
      exit 1);
  let traced = !trace = 1 and seconds = float !seconds in
  let r =
    match oneshot_of !workload with
    | Some w -> run_oneshot w ~seed:!seed ~seconds ~traced
    | None -> run_serve ~seed:!seed ~seconds ~traced
  in
  let e2e = end_to_end r in
  let metrics = if traced then layer_metrics r else e2e in
  (match
     List.find_opt (fun m -> not (valid_name m.name)) (metrics @ r.headline)
   with
  | Some m ->
      Printf.eprintf "perfbench: invalid metric name %S\n" m.name;
      exit 1
  | None -> ());
  Printf.printf "perfbench %s seed=%d passes=%d%s\n" !workload !seed
    (List.length r.passes)
    (if traced then " (+ traced)" else "");
  Printf.printf "pass wall times (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") r.passes));
  print_table "end to end (untraced passes)"
    (e2e @ r.headline
    @ [
        peak_heap ();
        metric ~samples:r.attempted "failed_share" "ratio"
          (F (float r.failed /. float (max 1 r.attempted)));
      ]);
  if traced then
    print_table "per layer (traced pass with the median wall time)"
      (layer_metrics r);
  List.iteri
    (fun i why -> if i < 10 then Printf.printf "FAILED: %s\n" why)
    r.reasons;
  print_endline
    (J.to_string
       (result_json ~correct:(r.failed = 0) ~attempted:r.attempted
          ~failed:r.failed metrics))
