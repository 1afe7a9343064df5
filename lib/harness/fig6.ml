open Wafl_workload
open Wafl_util

type row = { parallel : bool; result : Driver.result }

(* Both columns are Figure 4 rows ("parallel cleaner threads" and
   "white alligator"); batched with Figure 4 they run once. *)
let plan ?(scale = 1.0) () =
  let spec = Exp.spec_base ~scale in
  Exp.sweep [ false; true ]
    (fun parallel ->
      let cfg = Exp.wa_config ~cleaners:6 ~max_cleaners:6 ~parallel_infra:parallel () in
      { spec with Driver.cfg })
    (fun parallel result -> { parallel; result })

let print rows =
  Printf.printf "\nFigure 6: infrastructure parallelization (sequential write, parallel cleaners)\n";
  let t =
    Table.create
      ~headers:[ "infrastructure"; "ops/s"; "ops/s/client"; "infra cores"; "cleaner cores"; "total util" ]
  in
  List.iter
    (fun { parallel; result = r } ->
      Table.add_row t
        [
          (if parallel then "parallel" else "serialized");
          Printf.sprintf "%.0f" r.Driver.throughput;
          Printf.sprintf "%.0f" r.Driver.throughput_per_client;
          Table.cell_f r.Driver.cores_infra;
          Table.cell_f r.Driver.cores_cleaner;
          Table.cell_f r.Driver.utilization;
        ])
    rows;
  Table.print t

let shapes rows =
  match rows with
  | [ serial; parallel ] ->
      let gain =
        Exp.gain_pct ~baseline:serial.result.Driver.throughput parallel.result.Driver.throughput
      in
      [
        Exp.shape "fig6: serialized infrastructure is capped near one core"
          (serial.result.Driver.cores_infra <= 1.15);
        Exp.shape "fig6: parallel infrastructure uses more than one core"
          (parallel.result.Driver.cores_infra > 1.0);
        Exp.shape "fig6: infra parallelization raises throughput substantially (>40%)"
          (gain > 40.0);
      ]
  | _ -> [ Exp.shape "fig6: two configurations ran" false ]
