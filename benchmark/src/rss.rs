//! Peak resident memory (`VmHWM`) of this process or of a child.

use std::fs;

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// `VmHWM` of the process `pid` in MiB; `None` when the process is gone
/// (or is a zombie, whose status carries no memory lines).
pub fn vm_hwm_mib(pid: u32) -> Option<f64> {
    parse_vm_hwm_mib(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `VmHWM` of the calling process in MiB.
pub fn self_vm_hwm_mib() -> Option<f64> {
    parse_vm_hwm_mib(&fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    #[test]
    fn parses_the_status_line() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tzombie\nState:\tZ\n"), None);
    }

    #[test]
    fn reads_self_and_a_live_child() {
        let own = self_vm_hwm_mib().unwrap();
        assert!(own > 0.0);
        // `cat` blocks on its open stdin, so it stays alive to be read.
        let mut child = Command::new("cat")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let theirs = vm_hwm_mib(child.id());
        drop(child.stdin.take());
        child.wait().unwrap();
        assert!(theirs.unwrap() > 0.0);
        // Once reaped, the child has no status to read.
        assert_eq!(vm_hwm_mib(child.id()), None);
    }
}
