//! `perfbench-setup`: the set-up a job pays in a fresh process — kernel
//! bank build plus first problem assembly (`Mosaic::new`), cold heap
//! included.
//!
//! ```text
//! perfbench-setup --preset fast --grid 256 --pixel 4 --clip B1
//! ```
//!
//! Prints `{"setup_s":<seconds>}`. Run it several times for a median:
//! later builds in one process reuse freed heap pages and read up to 2x
//! faster than the first, which is the one every `mosaic batch` run pays.

use mosaic_core::Mosaic;
use mosaic_perfbench_probe::{config, parse_clip, push_json_num, Flags};
use std::process::ExitCode;
use std::time::Instant;

fn run() -> Result<String, String> {
    let flags = Flags::from_env()?;
    let clip = parse_clip(flags.get("clip")?)?;
    let cfg = config(
        flags.get("preset")?,
        flags.parse("grid")?,
        flags.parse("pixel")?,
        1,
    )?;
    let layout = clip.layout().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mosaic = Mosaic::new(&layout, cfg).map_err(|e| e.to_string())?;
    let seconds = t.elapsed().as_secs_f64();
    std::hint::black_box(mosaic);
    let mut out = String::from("{\"setup_s\":");
    push_json_num(&mut out, seconds);
    out.push('}');
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-setup: {e}");
            ExitCode::FAILURE
        }
    }
}
