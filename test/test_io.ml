(* Tests for the MatrixMarket / edge-list readers, plus the gantt renderer
   and the ablation plumbing. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let temp_file suffix = Filename.temp_file "hbc_test" suffix

let csr_equal (a : Workloads.Matrix_gen.csr) (b : Workloads.Matrix_gen.csr) =
  a.Workloads.Matrix_gen.n = b.Workloads.Matrix_gen.n
  && a.Workloads.Matrix_gen.row_ptr = b.Workloads.Matrix_gen.row_ptr
  && (* within a row the reader may reorder; compare sorted pairs *)
  List.for_all
    (fun i ->
      let row (m : Workloads.Matrix_gen.csr) =
        List.init
          (m.Workloads.Matrix_gen.row_ptr.(i + 1) - m.Workloads.Matrix_gen.row_ptr.(i))
          (fun k ->
            let k = k + m.Workloads.Matrix_gen.row_ptr.(i) in
            (m.Workloads.Matrix_gen.col_ind.(k), m.Workloads.Matrix_gen.vals.(k)))
        |> List.sort Stdlib.compare
      in
      row a = row b)
    (List.init a.Workloads.Matrix_gen.n Fun.id)

let mtx_roundtrip () =
  let m = Workloads.Matrix_gen.powerlaw ~reverse:false ~n:300 ~avg_nnz:6 ~seed:9 in
  let path = temp_file ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workloads.Io_formats.write_matrix_market path m;
      let m2 = Workloads.Io_formats.read_matrix_market path in
      check_bool "round trip" true (csr_equal m m2))

let mtx_symmetric_mirrored () =
  let path = temp_file ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 5.0\n3 3 7.0\n";
      close_out oc;
      let m = Workloads.Io_formats.read_matrix_market path in
      check_int "mirrored nnz" 3 (Workloads.Matrix_gen.nnz m);
      check_int "row 0 has (0,1)" 1 (Workloads.Matrix_gen.nnz_of_row m 0);
      check_int "row 1 has mirror (1,0)" 1 (Workloads.Matrix_gen.nnz_of_row m 1))

let mtx_pattern_field () =
  let path = temp_file ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "%%MatrixMarket matrix coordinate pattern general\n% c\n2 2 2\n1 1\n2 2\n";
      close_out oc;
      let m = Workloads.Io_formats.read_matrix_market path in
      check_int "nnz" 2 (Workloads.Matrix_gen.nnz m);
      Alcotest.(check (float 0.0)) "pattern value" 1.0 m.Workloads.Matrix_gen.vals.(0))

let mtx_rejects_garbage () =
  let path = temp_file ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a matrix\n";
      close_out oc;
      check_bool "raises" true
        (try
           ignore (Workloads.Io_formats.read_matrix_market path);
           false
         with Workloads.Io_formats.Parse_error _ -> true))

let mtx_drives_spmv () =
  let m = Workloads.Matrix_gen.arrowhead ~n:400 in
  let path = temp_file ".mtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workloads.Io_formats.write_matrix_market path m;
      let program =
        Workloads.Spmv.make_program ~name:"from-mtx" ~make_matrix:(fun () ->
            Workloads.Io_formats.read_matrix_market path)
      in
      let seq = Baselines.Serial_exec.run_program program in
      let hbc = Sched_run.run (Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 8 }) program in
      check_bool "valid run from file input" true (Sim.Run_result.fingerprints_close seq hbc))

let edge_list_roundtrip () =
  let g = Workloads.Graph.powerlaw ~n:200 ~avg_deg:5 ~alpha:1.5 ~seed:21 in
  let path = temp_file ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workloads.Io_formats.write_edge_list path g;
      let g2 = Workloads.Io_formats.read_edge_list path in
      check_int "n" g.Workloads.Graph.n g2.Workloads.Graph.n;
      check_int "edges" (Workloads.Graph.edges g) (Workloads.Graph.edges g2);
      check_bool "in_ptr equal" true (g.Workloads.Graph.in_ptr = g2.Workloads.Graph.in_ptr))

let edge_list_comments_and_weights () =
  let path = temp_file ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# snap-style header\n0 1\n1 2 3.5\n\n2 0\n";
      close_out oc;
      let g = Workloads.Io_formats.read_edge_list ~default_weight:2.0 path in
      check_int "n from max id" 3 g.Workloads.Graph.n;
      check_int "edges" 3 (Workloads.Graph.edges g);
      check_int "in-degree of 2" 1 (Workloads.Graph.in_degree g 2);
      (* vertex 2's single in-edge is 1 -> 2 with weight 3.5 *)
      Alcotest.(check (float 0.0)) "weight kept" 3.5
        g.Workloads.Graph.weights.(g.Workloads.Graph.in_ptr.(2)))

(* ----------------------------- gantt ------------------------------ *)

(* Interval events are stamped at their end time and carry their start. *)
let interval_record seq worker t0 t1 kind =
  { Obs.Trace.seq; time = t1; worker; event = Obs.Trace.Interval { t0; kind } }

let interval_sink () =
  Obs.Trace.Sink.stream ~keep:(function Obs.Trace.Interval _ -> true | _ -> false) ()

let gantt_renders () =
  let records = [ interval_record 0 0 0 100 "task"; interval_record 1 1 50 100 "task" ] in
  let s = Report.Gantt.render ~width:10 ~workers:2 ~makespan:100 records in
  check_bool "worker rows present" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 3 && String.sub l 0 3 = "w00"));
  Alcotest.(check (float 0.01)) "utilization" 75.0
    (Report.Gantt.utilization ~workers:2 ~makespan:100 records)

let gantt_order_independent () =
  (* The renderer sorts chronologically: feeding the intervals reversed (as
     a newest-first capture would) must yield the identical chart. *)
  let records = [ interval_record 0 0 0 100 "task"; interval_record 1 1 50 100 "task" ] in
  let chart l = Report.Gantt.render ~width:10 ~workers:2 ~makespan:100 l in
  Alcotest.(check string) "same chart" (chart records) (chart (List.rev records))

let timeline_recorded () =
  let p = Workloads.Spmv.random ~scale:0.05 in
  let request = Hbc_core.Run_request.make ~trace:(interval_sink ()) () in
  let r = Sched_run.run ~request (Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 8 }) p in
  let tl = Obs.Trace_query.intervals r.Sim.Run_result.trace in
  check_bool "intervals recorded" true (List.length tl > 1);
  List.iter
    (fun (w, t0, t1, _) ->
      check_bool "worker in range" true (w >= 0 && w < 8);
      check_bool "interval ordered" true (t1 > t0 && t1 <= r.Sim.Run_result.makespan))
    tl;
  (* worker 0 includes the driver interval spanning the run *)
  check_bool "driver recorded" true
    (List.exists (fun (_, _, _, k) -> k = "driver") tl)

let timeline_off_by_default () =
  let p = Workloads.Spmv.random ~scale:0.05 in
  let r = Sched_run.run (Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 8 }) p in
  check_int "no intervals" 0 (List.length r.Sim.Run_result.trace)

(* --------------------------- ablations ---------------------------- *)

let tiny = { Experiments.Harness.default_config with scale = 0.05; workers = 8 }

let ablation_registry () =
  Alcotest.(check (list string))
    "studies"
    [
      "leftover-task";
      "promotion-policy";
      "chunk-transferring";
      "leftover-pairs";
      "heartbeat-rate";
      "ac-window";
      "worker-scaling";
      "hybrid";
      "omp-schedules";
    ]
    (List.map fst Experiments.Ablations.all)

let ablation_policy_renders () =
  Experiments.Harness.clear_cache ();
  let out = Experiments.Ablations.promotion_policy tiny in
  check_bool "has outer-loop-first column" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.exists (fun l -> String.length l > 0));
  check_bool "no validation failures" true (Experiments.Harness.validation_failures () = [])

let innermost_policy_correct_but_finer () =
  let p = Workloads.Spmv.powerlaw ~scale:0.1 in
  let seq = Baselines.Serial_exec.run_program p in
  let outer = Sched_run.run (Sched_run.Hbc { Hbc_core.Rt_config.default with workers = 8 }) p in
  let inner =
    Sched_run.run
      (Sched_run.Hbc
         { Hbc_core.Rt_config.default with workers = 8; policy = Hbc_core.Rt_config.Innermost_first })
      p
  in
  check_bool "innermost-first still correct" true (Sim.Run_result.fingerprints_close seq inner);
  check_bool "outer-loop-first at least as fast" true
    (outer.Sim.Run_result.makespan <= inner.Sim.Run_result.makespan + (inner.Sim.Run_result.makespan / 5))

let gantt_empty_makespan () =
  let s = Report.Gantt.render ~workers:2 ~makespan:0 [] in
  check_bool "graceful" true (String.length s > 0);
  Alcotest.(check (float 0.0)) "zero utilization" 0.0
    (Report.Gantt.utilization ~workers:2 ~makespan:0 [])

let suite =
  [
    Alcotest.test_case "mtx: round trip" `Quick mtx_roundtrip;
    Alcotest.test_case "mtx: symmetric mirrored" `Quick mtx_symmetric_mirrored;
    Alcotest.test_case "mtx: pattern field" `Quick mtx_pattern_field;
    Alcotest.test_case "mtx: rejects garbage" `Quick mtx_rejects_garbage;
    Alcotest.test_case "mtx: drives spmv end-to-end" `Quick mtx_drives_spmv;
    Alcotest.test_case "edges: round trip" `Quick edge_list_roundtrip;
    Alcotest.test_case "edges: comments and weights" `Quick edge_list_comments_and_weights;
    Alcotest.test_case "gantt: renders" `Quick gantt_renders;
    Alcotest.test_case "gantt: order independent" `Quick gantt_order_independent;
    Alcotest.test_case "timeline: recorded when asked" `Quick timeline_recorded;
    Alcotest.test_case "timeline: off by default" `Quick timeline_off_by_default;
    Alcotest.test_case "ablations: registry" `Quick ablation_registry;
    Alcotest.test_case "ablations: policy study" `Slow ablation_policy_renders;
    Alcotest.test_case "policy: innermost correct, outer faster" `Slow innermost_policy_correct_but_finer;
    Alcotest.test_case "gantt: empty makespan" `Quick gantt_empty_makespan;
  ]
