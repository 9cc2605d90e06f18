(* Fig. 6: HBC vs the manually written TPAL binaries on the 8 iterative TPAL
   benchmarks. Expected shape: comparable geomeans; HBC ahead on
   mandelbrot/kmeans/srad (three-task promotions), behind ~20% on
   spmv-arrowhead (chunk-size transferring on tiny rows). *)

let render config =
  let entries = Workloads.Registry.tpal_set () in
  let table =
    Report.Table.create ~title:"Figure 6: speedup, TPAL (manual) vs HBC (automatic), 64 cores"
      ~columns:[ "benchmark"; "TPAL"; "HBC"; "HBC/TPAL" ]
  in
  let tpals = ref [] and hbcs = ref [] in
  List.iter
    (fun entry ->
      let tpal =
        Harness.run config (Sched_run.tpal ~chunk:entry.Workloads.Registry.tpal_chunk) entry
      in
      let hbc = Harness.run config Sched_run.hbc entry in
      tpals := tpal :: !tpals;
      hbcs := hbc :: !hbcs;
      Report.Table.add_row table
        [
          entry.Workloads.Registry.name;
          Harness.speedup_cell tpal;
          Harness.speedup_cell hbc;
          Report.Table.cell_f ~decimals:2 (hbc.Harness.speedup /. Float.max 0.01 tpal.Harness.speedup);
        ])
    entries;
  Report.Table.add_separator table;
  Report.Table.add_row table (Harness.geomean_row ~label:"geomean" [ !tpals; !hbcs ]);
  (* Failed/DNF cells are non-numeric; chart them as 0 bars. *)
  let bar s = Option.value ~default:0.0 (float_of_string_opt s) in
  let chart =
    Report.Ascii_chart.grouped ~title:"speedup (x)" ~series:[ "TPAL"; "HBC" ]
      (List.map
         (fun row -> match row with
           | name :: a :: b :: _ -> (name, [ bar a; bar b ])
           | _ -> ("", []))
         (Report.Table.rows table))
  in
  Report.Table.render table ^ "\n" ^ chart

let figure =
  Figure.make ~id:"fig6"
    ~caption:"HBC automatically delivers comparable performance to the manually-generated TPAL binaries"
    render
