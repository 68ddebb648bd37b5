type replay = {
  name : string;
  paper_ref : string;
  ops : Oracle.Op.t list;
  expected : Oracle.Refmodel.cls;
}

let launch ?(accel = false) ?(rules = false) slot = Oracle.Op.Launch { slot; mem_kb = 4; accel; rules }

(* Victim in slot 0, attacker in slot 1 — the same cast as Scenario. *)
let all =
  [
    {
      name = "packet-corruption";
      paper_ref = "§3.3 attack 1";
      ops =
        [
          launch 0 ~rules:true;
          launch 1;
          Oracle.Op.Write { actor = Slot 1; target = 0; space = Phys; off = 0; len = 16; byte = 0xAA };
        ];
      expected = Oracle.Refmodel.Cross_tenant_write;
    };
    {
      name = "ruleset-stealing";
      paper_ref = "§3.3 attack 2";
      ops =
        [ launch 0; launch 1; Oracle.Op.Read { actor = Slot 1; target = 0; space = Phys; off = 0; len = 64 } ];
      expected = Oracle.Refmodel.Cross_tenant_read;
    };
    {
      name = "accel-hijack";
      paper_ref = "§4.3 accelerator hijacking";
      ops = [ launch 0 ~accel:true; launch 1; Oracle.Op.Mmio_write { actor = 1; target = 0; reg = Graph; value = 0xBAD } ];
      expected = Oracle.Refmodel.Accel_hijack;
    };
    {
      name = "os-snooping";
      paper_ref = "§3.2 NIC-OS trust";
      ops = [ launch 0; Oracle.Op.Read { actor = Os; target = 0; space = Phys; off = 0; len = 64 } ];
      expected = Oracle.Refmodel.Os_read_nf;
    };
    {
      name = "dma-exfiltration";
      paper_ref = "§4.4 DMA bank windows";
      ops = [ launch 0; launch 1; Oracle.Op.Dma { actor = 1; target = 0; dir = To_host; off = 0; len = 64 } ];
      expected = Oracle.Refmodel.Cross_tenant_read;
    };
    {
      name = "scrub-residue";
      paper_ref = "§4.2 teardown scrub";
      ops = [ launch 0; Oracle.Op.Teardown { slot = 0 } ];
      expected = Oracle.Refmodel.Scrub_residue;
    };
    {
      name = "stale-translation";
      paper_ref = "§4.2 TLB locking";
      ops = [ launch 0; Oracle.Op.Teardown { slot = 0 } ];
      expected = Oracle.Refmodel.Stale_translation;
    };
  ]

let find name = List.find_opt (fun r -> String.equal r.name name) all

let reproduces mode r =
  let report = Oracle.Campaign.replay ~mode r.ops in
  List.exists (fun (v : Oracle.Refmodel.violation) -> v.cls = r.expected) report.Oracle.Campaign.violations
