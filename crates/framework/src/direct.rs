//! The direct-connected framework.
//!
//! "In direct-connected frameworks, all components in one process live in
//! the same address space and a port invocation then looks like a refined
//! form of library call" (paper §2.1, Figure 2). Running the same framework
//! assembly on every rank of a communicator makes each component a *cohort*
//! — a parallel component whose internal communication happens out-of-band
//! (via `mxn_runtime`) while all inter-component interaction goes through
//! ports.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{FrameworkError, Result};
use crate::port::{GoPort, ProvidedPort, UsesPort, GO_PORT_TYPE};

/// A CCA component: registers its uses/provides ports when added to a
/// framework.
pub trait Component: Send {
    /// Called once by the framework; the component declares its ports here
    /// and may keep the [`Services`] clone for later port lookups.
    fn set_services(&mut self, services: &Services) -> Result<()>;
}

#[derive(Default)]
struct Inner {
    components: Vec<String>,
    provided: HashMap<(String, String), ProvidedPort>,
    uses: HashMap<(String, String), UsesPort>,
    connections: HashMap<(String, String), (String, String)>,
}

/// A direct-connected CCA framework instance (one per process; run the
/// same assembly SPMD-style for parallel cohorts).
#[derive(Clone, Default)]
pub struct Framework {
    inner: Arc<Mutex<Inner>>,
}

impl Framework {
    /// Creates an empty framework.
    pub fn new() -> Self {
        Framework::default()
    }

    /// Instantiates a component under `name`: registers it and lets it
    /// declare ports via [`Component::set_services`]. Returns the
    /// component's services handle.
    pub fn add_component(&self, name: &str, component: &mut dyn Component) -> Result<Services> {
        {
            let mut inner = self.inner.lock();
            assert!(
                !inner.components.iter().any(|c| c == name),
                "component instance name `{name}` already in use"
            );
            inner.components.push(name.to_string());
        }
        let services = Services { fw: self.clone(), component: name.to_string() };
        component.set_services(&services)?;
        Ok(services)
    }

    fn check_component(inner: &Inner, name: &str) -> Result<()> {
        if inner.components.iter().any(|c| c == name) {
            Ok(())
        } else {
            Err(FrameworkError::ComponentNotFound { component: name.to_string() })
        }
    }

    /// Connects `user`'s uses port to `provider`'s provides port, checking
    /// SIDL port types (the BuilderService `connect` operation).
    pub fn connect(
        &self,
        user: &str,
        uses_port: &str,
        provider: &str,
        provides_port: &str,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        Self::check_component(&inner, user)?;
        Self::check_component(&inner, provider)?;
        let uses_key = (user.to_string(), uses_port.to_string());
        let uses = inner.uses.get(&uses_key).ok_or_else(|| FrameworkError::PortNotFound {
            component: user.to_string(),
            port: uses_port.to_string(),
        })?;
        let provided = inner
            .provided
            .get(&(provider.to_string(), provides_port.to_string()))
            .ok_or_else(|| FrameworkError::PortNotFound {
                component: provider.to_string(),
                port: provides_port.to_string(),
            })?;
        if uses.port_type != provided.port_type() {
            return Err(FrameworkError::PortTypeMismatch {
                uses_type: uses.port_type.clone(),
                provides_type: provided.port_type().to_string(),
            });
        }
        if inner.connections.contains_key(&uses_key) {
            return Err(FrameworkError::AlreadyConnected {
                component: user.to_string(),
                port: uses_port.to_string(),
            });
        }
        inner.connections.insert(uses_key, (provider.to_string(), provides_port.to_string()));
        Ok(())
    }

    fn go_handle(&self, component: &str) -> Result<Arc<dyn GoPort>> {
        let inner = self.inner.lock();
        Self::check_component(&inner, component)?;
        inner
            .provided
            .iter()
            .find(|((c, _), p)| c == component && p.port_type() == GO_PORT_TYPE)
            .ok_or_else(|| FrameworkError::PortNotFound {
                component: component.to_string(),
                port: GO_PORT_TYPE.to_string(),
            })
            .and_then(|((_, name), p)| p.downcast::<Arc<dyn GoPort>>(name))
    }

    /// Runs a component's Go port to completion.
    pub fn run_go(&self, component: &str) -> Result<i32> {
        self.go_handle(component)?.go()
    }

    /// Starts every registered Go port *concurrently* (the DCA startup
    /// model, paper §4.3) and returns each component's result.
    pub fn run_all_go(&self) -> Vec<(String, Result<i32>)> {
        let targets: Vec<(String, Arc<dyn GoPort>)> = {
            let inner = self.inner.lock();
            inner
                .provided
                .iter()
                .filter(|(_, p)| p.port_type() == GO_PORT_TYPE)
                .filter_map(|((c, name), p)| {
                    p.downcast::<Arc<dyn GoPort>>(name).ok().map(|g| (c.clone(), g))
                })
                .collect()
        };
        let mut results: Vec<(String, Result<i32>)> = Vec::with_capacity(targets.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = targets
                .into_iter()
                .map(|(name, go)| (name, scope.spawn(move || go.go())))
                .collect();
            for (name, h) in handles {
                let r = h
                    .join()
                    .unwrap_or(Err(FrameworkError::Runtime(mxn_runtime::RuntimeError::Aborted)));
                results.push((name, r));
            }
        });
        results.sort_by(|a, b| a.0.cmp(&b.0));
        results
    }
}

/// A component's window onto its framework (the CCA `Services` object).
#[derive(Clone)]
pub struct Services {
    fw: Framework,
    component: String,
}

impl Services {
    /// Registers a provides port under `name` with SIDL type `port_type`.
    pub fn add_provides_port<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
        port_type: &str,
        handle: T,
    ) -> Result<()> {
        let mut inner = self.fw.inner.lock();
        inner.provided.insert(
            (self.component.clone(), name.to_string()),
            ProvidedPort::new(port_type, handle),
        );
        Ok(())
    }

    /// Declares a uses port the framework may later connect.
    pub fn register_uses_port(&self, name: &str, port_type: &str) -> Result<()> {
        let mut inner = self.fw.inner.lock();
        inner.uses.insert(
            (self.component.clone(), name.to_string()),
            UsesPort { port_type: port_type.to_string() },
        );
        Ok(())
    }

    /// Resolves a connected uses port to its provider's handle — in a
    /// direct framework "a refined form of library call".
    pub fn get_port<T: Clone + 'static>(&self, name: &str) -> Result<T> {
        let inner = self.fw.inner.lock();
        let uses_key = (self.component.clone(), name.to_string());
        if !inner.uses.contains_key(&uses_key) {
            return Err(FrameworkError::PortNotFound {
                component: self.component.clone(),
                port: name.to_string(),
            });
        }
        let (prov_comp, prov_port) =
            inner.connections.get(&uses_key).ok_or_else(|| FrameworkError::NotConnected {
                component: self.component.clone(),
                port: name.to_string(),
            })?;
        let provided = inner
            .provided
            .get(&(prov_comp.clone(), prov_port.clone()))
            .expect("connection targets a registered provides port");
        provided.downcast::<T>(prov_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI32, Ordering};

    /// A toy "integrator" port.
    trait Integrate: Send + Sync {
        fn integrate(&self, lo: f64, hi: f64) -> f64;
    }

    struct MidpointIntegrator;
    impl Integrate for MidpointIntegrator {
        fn integrate(&self, lo: f64, hi: f64) -> f64 {
            (hi - lo) * ((lo + hi) / 2.0)
        }
    }

    /// Provider component.
    struct IntegratorComp;
    impl Component for IntegratorComp {
        fn set_services(&mut self, services: &Services) -> Result<()> {
            let handle: Arc<dyn Integrate> = Arc::new(MidpointIntegrator);
            services.add_provides_port("integrator", "math.Integrate", handle)
        }
    }

    /// User component driving the provider through its uses port.
    struct DriverComp {
        services: Option<Services>,
    }
    impl Component for DriverComp {
        fn set_services(&mut self, services: &Services) -> Result<()> {
            services.register_uses_port("solver", "math.Integrate")?;
            self.services = Some(services.clone());
            Ok(())
        }
    }

    fn wired() -> (Framework, Services) {
        let fw = Framework::new();
        fw.add_component("integrator", &mut IntegratorComp).unwrap();
        let mut driver = DriverComp { services: None };
        fw.add_component("driver", &mut driver).unwrap();
        fw.connect("driver", "solver", "integrator", "integrator").unwrap();
        (fw, driver.services.unwrap())
    }

    #[test]
    fn port_invocation_is_a_library_call() {
        let (_fw, services) = wired();
        let port: Arc<dyn Integrate> = services.get_port("solver").unwrap();
        assert_eq!(port.integrate(0.0, 2.0), 2.0);
    }

    #[test]
    fn unconnected_port_errors() {
        let fw = Framework::new();
        let mut driver = DriverComp { services: None };
        fw.add_component("driver", &mut driver).unwrap();
        let r: Result<Arc<dyn Integrate>> = driver.services.unwrap().get_port("solver");
        assert!(matches!(r, Err(FrameworkError::NotConnected { .. })));
    }

    #[test]
    fn type_mismatch_rejected_at_connect() {
        let fw = Framework::new();
        fw.add_component("integrator", &mut IntegratorComp).unwrap();
        struct WrongUser;
        impl Component for WrongUser {
            fn set_services(&mut self, s: &Services) -> Result<()> {
                s.register_uses_port("solver", "mesh.Refine")
            }
        }
        fw.add_component("user", &mut WrongUser).unwrap();
        let r = fw.connect("user", "solver", "integrator", "integrator");
        assert!(matches!(r, Err(FrameworkError::PortTypeMismatch { .. })));
    }

    #[test]
    fn double_connect_is_rejected() {
        let (fw, _services) = wired();
        let r = fw.connect("driver", "solver", "integrator", "integrator");
        assert!(matches!(r, Err(FrameworkError::AlreadyConnected { .. })));
    }

    #[test]
    fn missing_pieces_error_cleanly() {
        let fw = Framework::new();
        assert!(matches!(
            fw.connect("ghost", "a", "ghost2", "b"),
            Err(FrameworkError::ComponentNotFound { .. })
        ));
        fw.add_component("integrator", &mut IntegratorComp).unwrap();
        assert!(matches!(
            fw.connect("integrator", "nope", "integrator", "integrator"),
            Err(FrameworkError::PortNotFound { .. })
        ));
        assert!(matches!(fw.run_go("integrator"), Err(FrameworkError::PortNotFound { .. })));
    }

    #[test]
    fn go_ports_run_individually_and_concurrently() {
        static COUNTER: AtomicI32 = AtomicI32::new(0);
        struct Worker(i32);
        impl GoPort for Worker {
            fn go(&self) -> Result<i32> {
                COUNTER.fetch_add(1, Ordering::SeqCst);
                Ok(self.0)
            }
        }
        struct WorkerComp(i32);
        impl Component for WorkerComp {
            fn set_services(&mut self, s: &Services) -> Result<()> {
                let go: Arc<dyn GoPort> = Arc::new(Worker(self.0));
                s.add_provides_port("go", GO_PORT_TYPE, go)
            }
        }
        let fw = Framework::new();
        fw.add_component("a", &mut WorkerComp(1)).unwrap();
        fw.add_component("b", &mut WorkerComp(2)).unwrap();
        assert_eq!(fw.run_go("a").unwrap(), 1);
        let results = fw.run_all_go();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "a");
        assert_eq!(*results[1].1.as_ref().unwrap(), 2);
        assert_eq!(COUNTER.load(Ordering::SeqCst), 3);
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_instance_names_rejected() {
        let fw = Framework::new();
        fw.add_component("x", &mut IntegratorComp).unwrap();
        fw.add_component("x", &mut IntegratorComp).unwrap();
    }
}
