(* Beyond race detection: the other analyses origins enable (§3 of the
   paper names deadlock, over-synchronization and memory isolation).

   Run with:  dune exec examples/beyond_races.exe

   A small connection-pool server with three distinct concurrency defects:
   an AB/BA lock-order inversion between the pool and the stats locks, a
   lock pointlessly guarding per-worker scratch data, and a genuine data
   race on the connection counter — plus a semaphore handshake (the §4.3
   extension) that correctly orders the config initialization. *)

open O2_ir.Builder

let program () =
  let data = cls "Conn" ~fields:[ "state"; "count"; "cfg" ] [] in
  let worker =
    cls "PoolWorker" ~super:"Thread"
      ~fields:[ "pool"; "stats"; "ready"; "conns" ]
      [
        meth "init" [ "p"; "s"; "r"; "c" ]
          [
            fwrite "this" "pool" "p";
            fwrite "this" "stats" "s";
            fwrite "this" "ready" "r";
            fwrite "this" "conns" "c";
          ];
        meth "run" []
          [
            fread "pool" "this" "pool";
            fread "stats" "this" "stats";
            fread "ready" "this" "ready";
            fread "conns" "this" "conns";
            (* wait for the config handshake before reading it *)
            wait "ready";
            fread "cfg" "conns" "cfg";
            (* defect 1: pool->stats lock order *)
            sync "pool" [ sync "stats" [ fwrite "conns" "state" "conns" ] ];
            (* defect 2: a lock around purely worker-local scratch *)
            new_ "scratch" "Conn" [];
            sync "stats" [ fwrite "scratch" "state" "scratch" ];
            (* defect 3: unprotected shared counter *)
            fwrite "conns" "count" "conns";
            ret None;
          ];
      ]
  in
  let reaper =
    cls "Reaper" ~super:"Thread" ~fields:[ "pool"; "stats"; "conns" ]
      [
        meth "init" [ "p"; "s"; "c" ]
          [
            fwrite "this" "pool" "p";
            fwrite "this" "stats" "s";
            fwrite "this" "conns" "c";
          ];
        meth "run" []
          [
            fread "pool" "this" "pool";
            fread "stats" "this" "stats";
            fread "conns" "this" "conns";
            (* defect 1, other half: stats->pool lock order *)
            sync "stats" [ sync "pool" [ fwrite "conns" "state" "conns" ] ];
            (* defect 3, other half *)
            fread "n" "conns" "count";
            ret None;
          ];
      ]
  in
  let mainc =
    cls "Server"
      [
        meth ~static:true "main" []
          [
            new_ "pool" "Conn" [];
            new_ "stats" "Conn" [];
            new_ "ready" "Conn" [];
            new_ "conns" "Conn" [];
            new_ "w" "PoolWorker" [ "pool"; "stats"; "ready"; "conns" ];
            new_ "r" "Reaper" [ "pool"; "stats"; "conns" ];
            start "w";
            start "r";
            (* publish the config, then signal the handshake *)
            new_ "cfg" "Conn" [];
            fwrite "conns" "cfg" "cfg";
            signal "ready";
          ];
      ]
  in
  prog ~main:"Server" [ data; worker; reaper; mainc ]

let () =
  let p = program () in
  let r = O2.run O2.Config.default p in
  Format.printf "=== races ===@.%a@." (O2.pp_report r) ();

  (* the deadlock and over-synchronization checkers read the same
     session's SHB graph and OSA *)
  let dl = O2_race.Deadlock.run r.O2.graph in
  Format.printf "@.=== deadlocks ===@.";
  List.iter
    (fun c -> Format.printf "%a@." O2_race.Deadlock.pp_cycle c)
    dl.O2_race.Deadlock.cycles;

  let ov = O2_race.Oversync.run r.O2.solver r.O2.osa in
  Format.printf "@.=== over-synchronization ===@.";
  List.iter
    (fun f -> Format.printf "%a@." O2_race.Oversync.pp_finding f)
    ov.O2_race.Oversync.findings;

  Format.printf
    "@.summary: %d race(s), %d deadlock cycle(s), %d removable lock(s) — \
     and the cfg handshake is correctly ordered by signal/wait, so cfg is \
     not reported.@."
    (O2.n_races r)
    (O2_race.Deadlock.n_deadlocks dl)
    (O2_race.Oversync.n_findings ov)
