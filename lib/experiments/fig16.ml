(* Fig. 16: OpenMP static scheduling vs HBC on the regular benchmarks.
   Expected shape: static wins or ties everywhere except kmeans, where HBC's
   parallel array reduction beats the sequential OpenMP reduction by >50%;
   geomeans land close together. *)

let render config =
  let entries = Workloads.Registry.regular_set () in
  let table =
    Report.Table.create
      ~title:"Figure 16: speedup on regular workloads (OpenMP static vs HBC)"
      ~columns:[ "benchmark"; "OpenMP (static)"; "HBC"; "HBC/OpenMP" ]
  in
  let omps = ref [] and hbcs = ref [] in
  List.iter
    (fun entry ->
      let omp =
        Harness.run config (Sched_run.Openmp (Baselines.Openmp.static ())) ~tag:"omp-static" entry
      in
      let hbc = Harness.run config Sched_run.hbc entry in
      omps := omp :: !omps;
      hbcs := hbc :: !hbcs;
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          Harness.speedup_cell omp;
          Harness.speedup_cell hbc;
          Report.Table.cell_f ~decimals:2 (hbc.Harness.speedup /. Float.max 0.01 omp.Harness.speedup);
        ])
    entries;
  Report.Table.add_separator table;
  Report.Table.add_row table (Harness.geomean_row ~label:"geomean" [ !omps; !hbcs ]);
  (* Failed/DNF cells are non-numeric; chart them as 0 bars. *)
  let bar s = Option.value ~default:0.0 (float_of_string_opt s) in
  let chart =
    Report.Ascii_chart.grouped ~title:"speedup (x)" ~series:[ "OpenMP (static)"; "HBC" ]
      (List.map
         (fun row -> match row with
           | name :: a :: b :: _ -> (name, [ bar a; bar b ])
           | _ -> ("", []))
         (Report.Table.rows table))
  in
  Report.Table.render table ^ "\n" ^ chart

let figure =
  Figure.make ~id:"fig16"
    ~caption:"64-core evaluation comparing OpenMP static scheduling and HBC over regular workloads"
    render
