(* Fig. 4: 64-core speedups of OpenMP dynamic scheduling vs HBC over the 13
   irregular benchmarks. Expected shape: HBC wins on every benchmark; the
   paper reports geomeans 14.2x (OpenMP) vs 21.7x (HBC). *)

let render config =
  let entries = Workloads.Registry.irregular_set () in
  let table =
    Report.Table.create
      ~title:"Figure 4: speedup over sequential, irregular workloads (OpenMP dynamic vs HBC)"
      ~columns:[ "benchmark"; "OpenMP (dynamic)"; "HBC"; "HBC/OpenMP" ]
  in
  let omps = ref [] and hbcs = ref [] in
  List.iter
    (fun entry ->
      let omp =
        Harness.run ~tag:"omp-dyn1" config (Sched_run.Openmp (Baselines.Openmp.dynamic ())) entry
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
    Report.Ascii_chart.grouped ~title:"speedup (x)" ~series:[ "OpenMP (dynamic)"; "HBC" ]
      (List.map
         (fun row -> match row with
           | name :: a :: b :: _ -> (name, [ bar a; bar b ])
           | _ -> ("", []))
         (Report.Table.rows table))
  in
  Report.Table.render table ^ "\n" ^ chart

let figure =
  Figure.make ~id:"fig4"
    ~caption:"64-core evaluation comparing OpenMP dynamic scheduling and HBC over irregular workloads"
    render
