(* The benchmark binary: runs one workload for a window of seconds,
   checks its outputs and prints the result.  perfbench/run.py builds
   it and is the entry point; see perfbench/README.md. *)

open Perfbench_lib

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref "perfbench/out" and aprof = ref "_build/default/bin/aprof.exe" in
  let git_sha = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME bs-offline | mysql-offline | serve-mysql");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 record spans (per-layer figures)");
      ("--out-dir", Arg.Set_string out_dir, "DIR scratch and result files");
      ("--aprof", Arg.Set_string aprof, "EXE the aprof CLI (serve-mysql)");
      ("--git-sha", Arg.Set_string git_sha, "SHA commit, for the provenance row");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let o =
    {
      Outcome.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      out_dir = !out_dir;
      aprof_exe = !aprof;
      wrong_reference = false;
      scale = None;
      setup_reps = 5;
    }
  in
  let run =
    match !workload with
    | "bs-offline" -> fun () -> Offline.run Offline.bs o
    | "mysql-offline" -> fun () -> Offline.run Offline.mysql o
    | "serve-mysql" -> fun () -> Serve_load.run o
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let r = run () in
  Report.emit (Report.provenance ~git_sha:!git_sha) o r
