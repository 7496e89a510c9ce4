let solver_stats_json st =
  Obs.Json.Obj
    (List.map (fun (n, v) -> (n, Obs.Json.Int v)) (Sat.Solver.stats_fields st))

let row_stats_json (r : Runner.row) =
  Obs.Json.Obj
    [
      ("label", Obs.Json.String r.Runner.label);
      ("p", Obs.Json.Int r.Runner.p);
      ("m", Obs.Json.Int r.Runner.m);
      ("cov_solutions", Obs.Json.Int (List.length r.Runner.cov_solutions));
      ("bsat_solutions", Obs.Json.Int (List.length r.bsat.solutions));
      ("cov_truncated", Obs.Json.Bool r.Runner.cov_truncated);
      ("bsat_truncated", Obs.Json.Bool r.bsat.truncated);
      ("bsat_solver_calls", Obs.Json.Int r.bsat.solver_calls);
      ("bsat", solver_stats_json r.bsat.stats);
    ]

let rows_stats_json rows = Obs.Json.Arr (List.map row_stats_json rows)

let pp_table2 ppf rows =
  Format.fprintf ppf
    "%-10s %3s %4s | %8s | %8s %8s %8s | %8s %8s %8s@."
    "I" "p" "m" "BSIM" "COV:CNF" "One" "All" "BSAT:CNF" "One" "All";
  Format.fprintf ppf "%s@." (String.make 88 '-');
  List.iter
    (fun (r : Runner.row) ->
      Format.fprintf ppf
        "%-10s %3d %4d | %8.3f | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f%s@."
        r.Runner.label r.p r.m r.bsim_time r.cov.Runner.cnf r.cov.Runner.one
        r.cov.Runner.all r.bsat.cnf_time r.bsat.one_time r.bsat.all_time
        (if r.cov_truncated || r.bsat.truncated then "  (truncated)" else ""))
    rows

let pp_table3 ppf rows =
  Format.fprintf ppf
    "%-10s %2s %4s | %6s %6s %5s %4s %4s %6s | %6s %6s %6s %6s | %6s %6s %6s %6s@."
    "I" "p" "m" "|UCi|" "avgA" "Gmax" "min" "max" "avgG" "#sol" "min" "max"
    "avg" "#sol" "min" "max" "avg";
  Format.fprintf ppf "%-10s %2s %4s | %34s | %27s | %27s@."
    "" "" "" "BSIM" "COV" "BSAT";
  Format.fprintf ppf "%s@." (String.make 120 '-');
  List.iter
    (fun (r : Runner.row) ->
      let bq = r.Runner.bsim_q in
      let cq = r.cov_q and sq = r.bsat_q in
      Format.fprintf ppf
        "%-10s %2d %4d | %6d %6.2f %5d %4d %4d %6.2f | %6d %6.2f %6.2f %6.2f \
         | %6d %6.2f %6.2f %6.2f@."
        r.label r.p r.m bq.Diagnosis.Metrics.union_size
        bq.Diagnosis.Metrics.avg_a bq.Diagnosis.Metrics.gmax_size
        bq.Diagnosis.Metrics.gmax_min bq.Diagnosis.Metrics.gmax_max
        bq.Diagnosis.Metrics.gmax_avg cq.Diagnosis.Metrics.count
        cq.Diagnosis.Metrics.min_avg cq.Diagnosis.Metrics.max_avg
        cq.Diagnosis.Metrics.avg_avg sq.Diagnosis.Metrics.count
        sq.Diagnosis.Metrics.min_avg sq.Diagnosis.Metrics.max_avg
        sq.Diagnosis.Metrics.avg_avg)
    rows

let figure6_series rows =
  let avgs =
    List.map
      (fun (r : Runner.row) ->
        (r.cov_q.Diagnosis.Metrics.avg_avg, r.bsat_q.Diagnosis.Metrics.avg_avg))
      rows
  in
  let counts =
    List.map
      (fun (r : Runner.row) ->
        (r.cov_q.Diagnosis.Metrics.count, r.bsat_q.Diagnosis.Metrics.count))
      rows
  in
  (avgs, counts)

let pp_scatter ~width ~height ~xlabel ~ylabel ppf points =
  match points with
  | [] -> Format.fprintf ppf "(no points)@."
  | _ ->
      let xmax =
        List.fold_left (fun a (x, y) -> max a (max x y)) 1e-9 points *. 1.05
      in
      let grid = Array.make_matrix height width ' ' in
      (* diagonal y = x reference *)
      for i = 0 to min width height - 1 do
        grid.(height - 1 - (i * height / width)).(i) <- '.'
      done;
      List.iter
        (fun (x, y) ->
          let xi =
            min (width - 1) (int_of_float (x /. xmax *. float_of_int width))
          in
          let yi =
            min (height - 1) (int_of_float (y /. xmax *. float_of_int height))
          in
          grid.(height - 1 - yi).(xi) <- '*')
        points;
      Format.fprintf ppf "  %s (vertical) vs %s (horizontal), max=%.2f@."
        ylabel xlabel xmax;
      Array.iter
        (fun line ->
          Format.fprintf ppf "  |%s|@." (String.init width (Array.get line)))
        grid;
      Format.fprintf ppf "  +%s+@." (String.make width '-')

let pp_figure6 ppf rows =
  let avgs, counts = figure6_series rows in
  Format.fprintf ppf "Figure 6(a): average solution distance (COV, BSAT)@.";
  List.iter2
    (fun (r : Runner.row) (c, b) ->
      Format.fprintf ppf "  %-10s m=%-3d  COV=%6.2f  BSAT=%6.2f%s@." r.label
        r.m c b
        (if b <= c then "  [BSAT better or equal]" else ""))
    rows avgs;
  Format.fprintf ppf "@.Figure 6(b): number of solutions (COV, BSAT)@.";
  List.iter2
    (fun (r : Runner.row) (c, b) ->
      Format.fprintf ppf "  %-10s m=%-3d  COV=%6d  BSAT=%6d%s@." r.label r.m c
        b
        (if b <= c then "  [BSAT fewer or equal]" else ""))
    rows counts;
  Format.fprintf ppf "@.";
  pp_scatter ~width:48 ~height:16 ~xlabel:"COV avg" ~ylabel:"BSAT avg" ppf
    avgs
